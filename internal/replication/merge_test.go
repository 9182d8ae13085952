package replication

import (
	"flag"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

var seeds = flag.Int("seeds", 2, "how many seeds TestLossyReturnsConverge runs")

// away cuts n00 off and waits until the other three have installed their
// ring and n00 its own.
func (d *domain) away() {
	d.t.Helper()
	d.net.Crash(d.ids[0])
	waitFor(d.t, 5*time.Second, func() bool {
		return len(d.nodes[d.ids[0]].Members()) == 1 && len(d.nodes[d.ids[1]].Members()) == 3
	})
}

// TestJoinsRacingAMergeSurvive: forty joins are submitted by a survivor
// while the ring that takes a returner back forms. They are ordered in
// the history the ring keeps, so they stand — at every processor, the
// returner included once it has adopted that history's directory — and no
// view number ever goes back. (When every survivor pushed a snapshot cut
// at its own config event and every processor adopted the first one, the
// joins ordered between the cut and the snapshot were rolled back on all
// four: 8 to 10 of the 40, the view going 3 -> 2 and the joiner's replica
// closed.)
func TestJoinsRacingAMergeSurvive(t *testing.T) {
	d := newDomain(t, 4)
	const groups = 40
	host, joiner, returner := d.ids[2], d.ids[1], d.ids[0]
	for g := GroupID(100); g < 100+groups; g++ {
		d.mustCreate(g, Active, fmt.Sprint("key/", g))
		d.mustJoin(host, g, &regApp{})
	}
	d.away()

	// Nobody may see a view number decrease. The returner's old directory
	// is another history's; it is watched from its adoption on.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var wentBack string
	adoptedBefore := d.rms[returner].Stats().MembershipSyncs
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[memnet.NodeID][groups]uint64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range d.ids {
				if n == returner && d.rms[n].Stats().MembershipSyncs == adoptedBefore {
					continue
				}
				was := seen[n]
				for i := range was {
					v, _ := d.rms[n].View(GroupID(100 + i))
					if v.Number < was[i] && wentBack == "" {
						wentBack = fmt.Sprintf("%s: group %d went from view %d back to %d %v", n, 100+i, was[i], v.Number, v.Members)
					}
					was[i] = v.Number
				}
				seen[n] = was
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	d.net.Restart(returner)
	for g := GroupID(100); g < 100+groups; g++ {
		if err := d.rms[joiner].JoinGroup(g, &regApp{}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(1500 * time.Microsecond)
	}
	want := []memnet.NodeID{host, joiner}
	deadline := time.Now().Add(10 * time.Second)
	for settled := false; !settled; time.Sleep(2 * time.Millisecond) {
		settled = true
		var lost []string
		for _, n := range d.ids {
			for g := GroupID(100); g < 100+groups; g++ {
				if v, _ := d.rms[n].View(g); !slices.Equal(v.Members, want) {
					settled = false
					lost = append(lost, fmt.Sprintf("%s/%d: view %d %v", n, g, v.Number, v.Members))
				}
			}
		}
		if !settled && time.Now().After(deadline) {
			t.Fatalf("%d of %d directory entries are not %v: %v", len(lost), 4*groups, want, lost)
		}
	}
	for g := GroupID(100); g < 100+groups; g++ {
		if err := d.rms[joiner].WaitSynced(g, 5*time.Second); err != nil {
			t.Fatalf("group %d on %s: %v", g, joiner, err)
		}
	}
	close(stop)
	wg.Wait()
	if wentBack != "" {
		t.Fatal(wentBack)
	}
}

// TestDeletedWhileAwayDisappears: a group deleted while a processor was
// cut off is gone from that processor's directory once it has adopted the
// kept history's — adoption is wholesale — and until then its lookups keep
// answering from the directory it has: a gateway on a returning processor
// must not turn clients away with OBJECT_NOT_EXIST during the window.
func TestDeletedWhileAwayDisappears(t *testing.T) {
	d := newDomain(t, 4)
	const gone, kept GroupID = 100, 101
	for _, g := range []GroupID{gone, kept} {
		d.mustCreate(g, Active, fmt.Sprint("key/", g))
		d.mustJoin(d.ids[1], g, &regApp{})
	}
	d.away()
	if err := d.rms[d.ids[1]].DeleteGroup(gone); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, ok := d.rms[d.ids[3]].View(gone)
		return !ok
	})

	back := d.rms[d.ids[0]]
	d.net.Restart(d.ids[0])
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, hasGone := back.GroupByKey([]byte(fmt.Sprint("key/", gone)))
		_, hasKept := back.GroupByKey([]byte(fmt.Sprint("key/", kept)))
		adopted := back.Stats().MembershipSyncs > 0 // read last: false means the lookups came first
		if !hasKept || !adopted && !hasGone {
			t.Fatalf("lookups before adoption (adopted %v): deleted group %v, kept group %v, want the old directory's answers", adopted, hasGone, hasKept)
		}
		if adopted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the returner never adopted a directory")
		}
		time.Sleep(100 * time.Microsecond)
	}
	v, inView := back.View(gone)
	_, byKey := back.GroupByKey([]byte(fmt.Sprint("key/", gone)))
	if inView || byKey || slices.Contains(back.Groups(), gone) {
		t.Fatalf("the deleted group survives on the returner: view %+v (%v), byKey %v, groups %v", v, inView, byKey, back.Groups())
	}
	want, _ := d.rms[d.ids[1]].View(kept)
	if v, _ := back.View(kept); v.Number != want.Number || !slices.Equal(v.Members, want.Members) {
		t.Fatalf("the kept group on the returner is %+v, want %+v", v, want)
	}
}

// TestFreshProcessorAdoptsDirectory: a processor that was never in a ring
// joins a running one. The ring keeps the others' history, totem tells
// the newcomer so, and it asks for the directory like any returner — and
// is answered even when there is no group yet: the snapshot of an empty
// directory is still a snapshot, or a newcomer to a domain nothing has
// been deployed in would wait for ever. However few of the configured
// processors are running — one of four, started a second ahead of the
// next, is no majority of the ring the two first install, which lists
// all four — theirs is the history kept, whichever id the newcomer has,
// and the domain goes on creating and joining groups afterwards.
func TestFreshProcessorAdoptsDirectory(t *testing.T) {
	for _, c := range []struct {
		running []int
		fresh   int
		groups  int
	}{
		{[]int{0, 1, 2}, 3, 0},
		{[]int{0, 1, 2}, 3, 3},
		{[]int{0}, 1, 3},
		{[]int{1}, 0, 3},
		{[]int{2}, 3, 3},
	} {
		t.Run(fmt.Sprintf("running=%v/fresh=%d/groups=%d", c.running, c.fresh, c.groups), func(t *testing.T) {
			d := &domain{t: t, net: memnet.New(), nodes: map[memnet.NodeID]*totem.Node{}, rms: map[memnet.NodeID]*Mechanisms{}}
			d.ids = []memnet.NodeID{"n00", "n01", "n02", "n03"}
			start := func(id memnet.NodeID) {
				ep, err := d.net.Attach(id)
				if err != nil {
					t.Fatal(err)
				}
				d.nodes[id], d.rms[id] = startNode(t, id, ep, d.ids)
			}
			var running []memnet.NodeID
			for _, i := range c.running {
				running = append(running, d.ids[i])
				start(d.ids[i])
			}
			fresh, host := d.ids[c.fresh], running[len(running)-1]
			waitFor(t, 5*time.Second, func() bool { return len(d.nodes[host].Members()) == len(running) })
			for g := GroupID(100); g < GroupID(100+c.groups); g++ {
				if err := d.rms[running[0]].CreateGroup(g, Active, []byte(fmt.Sprint("key/", g))); err != nil {
					t.Fatal(err)
				}
				if err := d.rms[host].WaitForGroup(g, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				d.mustJoin(host, g, &regApp{})
			}
			for _, id := range running {
				waitFor(t, 5*time.Second, func() bool { return d.directory(id) == d.directory(host) })
			}

			start(fresh)
			waitFor(t, 5*time.Second, func() bool {
				s := d.rms[fresh].Stats()
				return len(d.nodes[fresh].Members()) == len(running)+1 && s.MembershipSyncs == 1 && !s.DirectoryAwaiting
			})
			if got, want := d.directory(fresh), d.directory(host); got != want {
				t.Fatalf("%s adopted %s, the ring holds %s", fresh, got, want)
			}
			for _, id := range running {
				if s := d.rms[id].Stats(); s.MembershipSyncs != 0 || s.DirectoryAwaiting {
					t.Fatalf("%s, which continues, adopted %d snapshots (awaiting %v)", id, s.MembershipSyncs, s.DirectoryAwaiting)
				}
			}
			// The control plane is alive on both sides of the adoption.
			if err := d.rms[fresh].CreateGroup(200, Active, []byte("key/200")); err != nil {
				t.Fatal(err)
			}
			if err := d.rms[host].WaitForGroup(200, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			d.mustJoin(host, 200, &regApp{})
			d.mustJoin(fresh, 200, &regApp{})
			if err := d.rms[fresh].WaitSynced(200, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return d.directory(fresh) == d.directory(host) })
		})
	}
}

// directory is what a processor's group directory says, for comparison.
func (d *domain) directory(n memnet.NodeID) string { return d.rms[n].directory() }

func (rm *Mechanisms) directory() string {
	ids := rm.Groups()
	slices.Sort(ids)
	var out []string
	for _, g := range ids {
		v, _ := rm.View(g)
		out = append(out, fmt.Sprintf("%d: view %d %v", g, v.Number, v.Members))
	}
	return fmt.Sprint(out)
}

// TestLossyReturnsConverge crashes and returns n00 four times per seed
// with 40 % datagram loss for 400 ms around each return, so joins, tokens,
// requests, snapshots and the rings they were sent in are lost at every
// stage of a merge and of a recovery. Within a bounded time of the loss
// ending the four are one ring again, nobody is awaiting — every ring but
// a founding one keeps the history of a member that is in it, so an
// awaiting directory always has somebody to be served by, and is served —
// and every processor holds the same (members, view number) for every
// group. (TestOnlyTheAwaitingAdopt pins the one bug of this kind that was
// replication's own: a snapshot valid for one ring id alone, dropped when
// it arrived in the next ring. The rest were totem's, which told two
// histories that they continue: 5 of 476 returns ended with directories
// differing and nobody awaiting before a ring was named by its member
// list and a member answered for no ring it had heard no verdict of;
// internal/totem's TestHeavyLossReturnsSettle is this sweep in virtual
// time.)
func TestLossyReturnsConverge(t *testing.T) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			d := newDomain(t, 4, memnet.WithSeed(seed))
			for g := GroupID(100); g < 104; g++ {
				d.mustCreate(g, Active, fmt.Sprint("key/", g))
				d.mustJoin(d.ids[1], g, &regApp{})
				d.mustJoin(d.ids[2], g, &regApp{})
			}
			for round := 1; round <= 4; round++ {
				d.away()
				d.net.SetLoss(0.4)
				time.Sleep(200 * time.Millisecond)
				d.net.Restart(d.ids[0])
				time.Sleep(200 * time.Millisecond)
				d.net.SetLoss(0)

				deadline := time.Now().Add(5 * time.Second)
				for {
					oneRing, awaiting := true, 0
					dirs := make([]string, len(d.ids))
					for i, n := range d.ids {
						oneRing = oneRing && len(d.nodes[n].Members()) == 4
						if directoryAwaiting(d.rms[n]) {
							awaiting++
						}
						dirs[i] = d.directory(n)
					}
					if oneRing && awaiting == 0 && dirs[0] == dirs[1] && dirs[1] == dirs[2] && dirs[2] == dirs[3] {
						break
					}
					if time.Now().Before(deadline) {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					for i, n := range d.ids {
						t.Logf("%s: ring %v, awaiting %v, %s", n, d.nodes[n].Members(), directoryAwaiting(d.rms[n]), dirs[i])
					}
					switch {
					case !oneRing:
						t.Fatalf("round %d: the four are not one ring 5 s after the loss ended", round)
					case awaiting > 0:
						t.Fatalf("round %d: %d of 4 directories are awaiting and nobody serves them", round, awaiting)
					default:
						t.Fatalf("round %d: directories differ and nobody is awaiting: two histories were told they continue", round)
					}
				}
			}
		})
	}
}

// idleMechanisms returns mechanisms on ids[0] whose totem node never
// installs a ring — the others never start and its gather never ends — so
// the event loop is idle and the test may stand in for it. The node is
// stopped once the mechanisms run on it, so the only events are the
// test's, and what the mechanisms multicast stays in the node's backlog
// to be counted.
func idleMechanisms(t *testing.T, ids []memnet.NodeID) (*Mechanisms, *totem.Node) {
	t.Helper()
	ep, err := memnet.New().Attach(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	node, err := totem.NewNode(totem.Config{ID: ids[0], Endpoint: ep, Members: ids, FailTimeout: time.Hour, GatherTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	m, err := New(Config{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	node.Stop()
	return m, node
}

// TestOnlyTheAwaitingAdopt walks one member through the recovery rule by
// hand. Not awaiting, it answers a request with one snapshot cut at the
// request's position and ignores a snapshot. Awaiting, it answers
// nothing, holds what it is delivered — of the state transfers its own
// alone — ignores a snapshot that answers no request it holds (another
// cut, another asker, or asked in another ring), and adopts the first
// that does — wholesale: a group the snapshot lacks is gone, key and all; its own
// replica carries over where it is still listed; what it held behind the
// cut is replayed and what it held ahead of it is not; and a group that
// lists it though it hosts nothing there is told it has left.
func TestOnlyTheAwaitingAdopt(t *testing.T) {
	ids := []memnet.NodeID{"n00", "n01", "n02"}
	m, node := idleMechanisms(t, ids)
	backlog := func(want int) {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool {
			queued, _ := node.Backlog()
			return queued == want
		})
	}
	// n01 asks, in ring 9; what answers it echoes the header and names it.
	ask := Header{Kind: KindMembershipSync, ClientID: UnusedClientID, Op: OperationID{ParentTS: 9}}
	snapshot := func(h Header, asker memnet.NodeID, cut uint64) Message {
		return Message{Header: h, Payload: encodeMembershipSync(membershipSyncPayload{Asker: asker, Cut: cut, Groups: []syncGroup{
			{ID: 100, Style: Active, ObjectKey: []byte("key/100"), View: 5, ViewSeq: 40, Members: ids[:2]},
			{ID: 102, Style: Active, ObjectKey: []byte("key/102"), View: 2, ViewSeq: 41, Members: ids[:1]},
		}})}
	}
	join := func(g GroupID, n memnet.NodeID) Message {
		return viewChange(g, viewChangePayload{Add: []memnet.NodeID{n}})
	}
	m.mu.Lock()
	for g := GroupID(100); g <= 101; g++ {
		m.groups[g] = &groupState{id: g, style: Active, objectKey: fmt.Sprint("key/", g), members: slices.Clone(ids[:1]), pendingJoins: map[memnet.NodeID]bool{}, view: 2}
		m.byKey[fmt.Sprint("key/", g)] = g
	}
	m.groups[100].local = newReplica(m, 100, Active, nil) // a client-only member: not closed for not continuing
	m.mu.Unlock()
	before := m.directory()

	m.deliverControl(snapshot(ask, ids[1], 50), ids[2], 51)
	if got := m.directory(); got != before || m.Stats().MembershipSyncs != 0 {
		t.Fatalf("a member that was not awaiting adopted a snapshot: %s", got)
	}
	m.deliverControl(Message{Header: ask}, ids[1], 52)
	backlog(1) // its answer

	m.handleConfig(totem.ConfigChange{RingID: 9, Members: ids, Continues: false})
	backlog(2)                                      // its request
	m.deliverControl(join(100, ids[2]), ids[2], 60) // ahead of the cut: the snapshot knows
	m.deliverControl(Message{Header: ask}, ids[1], 61)
	backlog(2)                                      // an awaiting member answers nobody
	m.deliverControl(join(100, ids[2]), ids[2], 62) // behind the cut: replayed
	// Another joiner's image is not held; this member's own would be.
	m.deliverControl(Message{Header: Header{Kind: KindStateTransfer, DstGroup: 100}, Payload: encodeState(0, Header{}, statePayload{Target: ids[2]}, nil)[headerLen:]}, ids[1], 63)
	m.deliverControl(Message{Header: Header{Kind: KindStateTransfer, DstGroup: 100}, Payload: encodeState(0, Header{}, statePayload{Target: ids[0]}, nil)[headerLen:]}, ids[1], 64)
	m.mu.RLock()
	held := len(m.held)
	m.mu.RUnlock()
	if held != 4 {
		t.Fatalf("holds %d events, want the two joins, the request and the one state transfer addressed to it", held)
	}
	// The ring changes under the recovery — n01 goes, and this member
	// continues into the new ring, asking again. The snapshot was cut and
	// sent in the old one: it is adopted all the same, and the ring
	// change, which it cannot know, replayed on it. (Valid for the ring id
	// it was sent in alone, it was dropped here, and the member kept the
	// directory of the ring it had been alone in for ever.)
	m.handleConfig(totem.ConfigChange{RingID: 10, Members: []memnet.NodeID{ids[0], ids[2]}, Continues: true})
	backlog(3)
	// A cut is a number, and every history counts the same numbers: what
	// answers a request this member holds says who asked it, and in which
	// ring. A snapshot left over from a history the ring did not keep is
	// ordered in this one all the same.
	other := ask
	other.Op.ParentTS = 8
	for _, stale := range []Message{snapshot(ask, ids[1], 59), snapshot(ask, ids[2], 61), snapshot(other, ids[1], 61)} {
		m.deliverControl(stale, ids[2], 65)
		if !directoryAwaiting(m) || m.directory() != before {
			t.Fatalf("adopted a snapshot that answers no request it holds: %s", m.directory())
		}
	}
	m.deliverControl(snapshot(ask, ids[1], 61), ids[2], 66)
	want := "[100: view 7 [n00 n02] 102: view 2 [n00]]" // view 5, n02 joined, n01 gone with the ring
	if got := m.directory(); directoryAwaiting(m) || m.Stats().MembershipSyncs != 1 || got != want {
		t.Fatalf("awaiting %v, %d adoptions, directory %s, want %s", directoryAwaiting(m), m.Stats().MembershipSyncs, got, want)
	}
	if _, ok := m.GroupByKey([]byte("key/101")); ok {
		t.Fatal("the group the snapshot lacks is still found by its key")
	}
	if member, clientOnly := m.membership(100); !member || !clientOnly {
		t.Fatal("the replica of a group that still lists this node did not carry over")
	}
	backlog(4) // its leave from group 102, which lists it and which it hosts nothing of
	m.deliverControl(snapshot(ask, ids[1], 61), ids[2], 67)
	if m.Stats().MembershipSyncs != 1 {
		t.Fatal("adopted a second time, not awaiting")
	}
}

// TestHandleConfigReadsTheVerdictAlone drives handleConfig with hand-built
// ConfigChange values on mechanisms whose totem node never installs a
// ring: what replication does at a ring change follows from Continues and
// the member list, and from nothing it could count or compare itself.
func TestHandleConfigReadsTheVerdictAlone(t *testing.T) {
	ids := []memnet.NodeID{"n00", "n01", "n02"}
	for _, c := range []struct {
		name     string
		change   totem.ConfigChange
		awaiting bool            // the directory afterwards
		hosts    bool            // the servant replica is still open
		members  []memnet.NodeID // of the group, in the directory lookups read
	}{
		{"founding", totem.ConfigChange{RingID: 1, Members: ids, Continues: true}, false, true, ids[:2]},
		{"continues, a member gone", totem.ConfigChange{RingID: 7, Members: ids[:1], Continues: true}, false, true, ids[:1]},
		// A one-member ring it does not continue: no count says "minority".
		{"does not continue", totem.ConfigChange{RingID: 7, Members: ids[:1], Continues: false}, true, false, ids[:1]},
		{"does not continue, nobody gone", totem.ConfigChange{RingID: 7, Members: ids, Continues: false}, true, false, ids[:2]},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, node := idleMechanisms(t, ids)
			m.mu.Lock()
			g := &groupState{id: 100, style: Active, members: slices.Clone(ids[:2]), pendingJoins: map[memnet.NodeID]bool{}, view: 3}
			g.local = newReplica(m, g.id, g.style, &regApp{})
			m.groups[g.id] = g
			m.mu.Unlock()

			m.handleConfig(c.change)

			m.mu.RLock()
			hosts := g.local != nil
			m.mu.RUnlock()
			if got := directoryAwaiting(m); got != c.awaiting || hosts != c.hosts || !slices.Equal(m.Members(100), c.members) {
				t.Fatalf("awaiting %v, replica open %v, members %v; want %v, %v, %v", got, hosts, m.Members(100), c.awaiting, c.hosts, c.members)
			}
			// Nobody answers here. At the next ring, which it continues
			// into, an awaiting member is awaiting still and asks again;
			// one that is not asks nothing. (No ring orders anything on
			// this node, so what was multicast is its backlog.)
			m.handleConfig(totem.ConfigChange{RingID: 8, Members: c.change.Members, Continues: true})
			asked := 0
			if c.awaiting {
				asked = 2
			}
			waitFor(t, 5*time.Second, func() bool {
				queued, _ := node.Backlog()
				return queued == asked
			})
			if got := directoryAwaiting(m); got != c.awaiting {
				t.Fatalf("awaiting %v after the next ring, want %v", got, c.awaiting)
			}
		})
	}
}
