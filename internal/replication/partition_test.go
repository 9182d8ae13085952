package replication

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// TestPartitionHealingDiscardsStaleMinority exercises primary-component
// membership reconciliation after a ring merge. A replica node isolated
// into a minority partition keeps a stale servant and, having evicted
// everyone else from its directory, believes it is the group. The
// majority keeps executing, so on merge the two components disagree.
// The majority's directory must win: the returning node
// discards its stale replica at the merge configuration (before any
// post-merge delivery), adopts the broadcast directory snapshot, and
// never answers from stale state again.
func TestPartitionHealingDiscardsStaleMinority(t *testing.T) {
	d := newDomain(t, 4)
	// Replicas on n00 and n01, client on n03.
	apps := setupClientServer(t, d, Active, 2, 3)
	client := d.rms[d.ids[3]]

	for i := 0; i < 4; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i+1), "append", octets([]byte("a"))); err != nil {
			t.Fatal(err)
		}
	}

	// Isolate n00. Both sides must finish reconfiguring before the heal:
	// the survivors evict n00 from the group, and n00 — alone in a
	// singleton ring — evicts n01, keeping its now-stale replica live.
	d.net.Crash(d.ids[0])
	waitFor(t, 5*time.Second, func() bool {
		ms := d.rms[d.ids[1]].Members(grpServer)
		return len(ms) == 1 && ms[0] == d.ids[1]
	})
	waitFor(t, 5*time.Second, func() bool {
		ms := d.rms[d.ids[0]].Members(grpServer)
		return len(ms) == 1 && ms[0] == d.ids[0]
	})

	// The majority component keeps executing, advancing past the
	// partitioned replica's state.
	for i := 0; i < 4; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(100+i), "append", octets([]byte("b"))); err != nil {
			t.Fatal(err)
		}
	}

	// Heal the partition. The majority (3 of 4 nodes) broadcasts its
	// directory; the minority node adopts exactly one snapshot.
	d.net.Restart(d.ids[0])
	waitStat(t, func() uint64 { return d.rms[d.ids[0]].Stats().MembershipSyncs }, 1)

	// Every node converges on the majority's directory: n01 is the sole
	// member, at an identical view number.
	waitFor(t, 5*time.Second, func() bool {
		want, ok := d.rms[d.ids[1]].View(grpServer)
		if !ok {
			return false
		}
		for _, n := range d.ids {
			v, ok := d.rms[n].View(grpServer)
			if !ok || v.Number != want.Number || len(v.Members) != 1 || v.Members[0] != d.ids[1] {
				return false
			}
		}
		return true
	})

	// Post-merge invocations are served from the surviving replica's
	// state; the discarded replica never executes again.
	_, staleOps := apps[0].snapshot()
	for i := 0; i < 3; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(200+i), "append", octets([]byte("c"))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, 300, "count", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	r := cdr.NewReader(rep.Result, rep.ResultOrder)
	if got := r.ReadLongLong(); got != 11 || r.Err() != nil {
		t.Fatalf("count = %d (err %v), want 11", got, r.Err())
	}
	if _, ops := apps[1].snapshot(); ops != 11 {
		t.Fatalf("surviving replica ops = %d, want 11", ops)
	}
	if _, ops := apps[0].snapshot(); ops != staleOps {
		t.Fatalf("discarded replica executed after merge: ops %d -> %d", staleOps, ops)
	}
}

// deafTransport hands its processor the ring's tokens and joins (totem's
// datagram kinds 2 and 3) and nothing else while deaf is set: the
// processor stays in the ring and misses the messages it orders.
type deafTransport struct {
	*memnet.Endpoint
	deaf atomic.Bool
	in   chan memnet.Packet
}

func newDeafTransport(t *testing.T, ep *memnet.Endpoint) *deafTransport {
	d := &deafTransport{Endpoint: ep, in: make(chan memnet.Packet, 1024)}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case p := <-ep.Recv():
				if d.deaf.Load() && p.Payload[0] != 2 && p.Payload[0] != 3 {
					continue
				}
				select {
				case d.in <- p:
				case <-stop:
					return
				}
			case <-stop:
				return
			}
		}
	}()
	return d
}

func (d *deafTransport) Recv() <-chan memnet.Packet { return d.in }

// TestLateDeliveryInANonPrimaryRingRuns: two members that continue one
// history can deliver an invocation in different rings. n00 delivers it in
// the ring of all four and executes it; n01, deaf to the ring's messages
// until then, receives it by retransmission only in the ring {n00, n01} of
// a 2|2 split, which holds no majority. An even split keeps the history of
// the side with the lowest id, so both continue into the merged ring, and
// n01's replica must execute the invocation there — not in the ring that
// delivered it, and not never: a replica that dropped it would differ from
// n00's for good, and n02 and n03 would adopt whichever a donor held.
func TestLateDeliveryInANonPrimaryRingRuns(t *testing.T) {
	net := memnet.New()
	ids := []memnet.NodeID{"n00", "n01", "n02", "n03"}
	d := &domain{t: t, net: net, ids: ids, nodes: make(map[memnet.NodeID]*totem.Node), rms: make(map[memnet.NodeID]*Mechanisms)}
	var late *deafTransport
	for _, id := range ids {
		ep, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var tr totem.Transport = ep
		if id == "n01" {
			late = newDeafTransport(t, ep)
			tr = late
		}
		d.nodes[id], d.rms[id] = startNode(t, id, tr, ids)
	}
	apps := []*regApp{{}, {}}
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustJoin("n00", grpServer, apps[0])
	d.mustJoin("n01", grpServer, apps[1])
	for _, id := range ids {
		if err := d.rms[id].WaitForMembers(grpServer, 2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// In which ring n01 delivers the invocation, and whether primary.
	inPrimary := make(chan bool, 1)
	d.rms["n01"].SetObserver(grpServer, func(msg Message, _ uint64) {
		if msg.Header.Op.ChildSeq == 1 {
			select {
			case inPrimary <- d.rms["n01"].primary.Load():
			default:
			}
		}
	})

	late.deaf.Store(true)
	if err := multicastRequest(d.rms["n00"], grpServer, 0, grpServer, OperationID{ChildSeq: 1}, giop.Request{
		RequestID: 1, ObjectKey: []byte(testKeyStr), Operation: "append", Args: octets([]byte("m")),
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { v, _ := apps[0].snapshot(); return string(v) == "m" })

	net.Partition([]memnet.NodeID{"n00", "n01"}, []memnet.NodeID{"n02", "n03"})
	waitFor(t, 5*time.Second, func() bool {
		return len(d.nodes["n00"].Members()) == 2 && len(d.nodes["n01"].Members()) == 2 && !d.rms["n01"].primary.Load()
	})
	late.deaf.Store(false)
	select {
	case primary := <-inPrimary:
		if primary {
			t.Fatal("n01 delivered the invocation in a primary ring: the split came too late")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("n01 never delivered the invocation in the ring {n00, n01}")
	}
	time.Sleep(50 * time.Millisecond)
	if v, _ := apps[1].snapshot(); len(v) != 0 {
		t.Fatalf("n01 executed in a ring without a majority: %q", v)
	}

	net.Heal()
	waitFor(t, 5*time.Second, func() bool {
		a, _ := apps[0].snapshot()
		b, _ := apps[1].snapshot()
		return string(a) == "m" && string(b) == "m"
	})
}

// TestReturnUnderLoadKeepsDirectory is ROADMAP item 1 one layer above
// where it broke: a processor that was cut off while the ring stayed
// busy returns, rejoins the ring and adopts the majority's directory.
// A client on n03 invokes an active group on n00..n02 in a loop beside a
// stream of payloads that are not infrastructure messages (they only
// run the sequence numbers up); n01 is cut off for 1.5 s and returns,
// then n02. Before totem kept one history across a merge, the returner
// installed the 4-ring and never delivered again — its old watermark
// pinned the ring's horizon and the token carried one retransmission
// request per sequence number it had missed — so the snapshot never
// reached it.
func TestReturnUnderLoadKeepsDirectory(t *testing.T) {
	d := newDomain(t, 4)
	setupClientServer(t, d, Active, 3, 3)
	client := d.rms[d.ids[3]]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(2)
	go func() {
		defer wg.Done()
		junk := make([]byte, 64) // kind 0: not an infrastructure message
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d.nodes[d.ids[3]].Multicast(junk) != nil {
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for req := uint32(1); ; req++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are the reconfigurations' business, not this test's.
			_, _ = client.Invoke(grpClient, 1, grpServer, OperationID{ChildSeq: req}, giop.Request{
				RequestID: req, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: "append", Args: octets([]byte("x")),
			}, 200*time.Millisecond)
		}
	}()

	for _, victim := range []memnet.NodeID{d.ids[1], d.ids[2]} {
		before := d.rms[victim].Stats().MembershipSyncs
		d.net.Crash(victim)
		time.Sleep(1500 * time.Millisecond)
		d.net.Restart(victim)
		deadline := time.Now().Add(10 * time.Second)
		for len(d.nodes[victim].Members()) != 4 || d.rms[victim].Stats().MembershipSyncs == before {
			if time.Now().After(deadline) {
				t.Fatalf("victim %s: ring %v, syncs %d -> %d: did not rejoin and adopt the directory",
					victim, d.nodes[victim].Members(), before, d.rms[victim].Stats().MembershipSyncs)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// muteTransport is a member's endpoint that, once armed, goes mute at the
// first datagram it sends that carries payloads — a regular message or a
// pack (totem's wire.go), dropped with everything after it: the member
// hears the ring and nobody hears it, from the message it sent on.
type muteTransport struct {
	*memnet.Endpoint
	armed, mute atomic.Bool
}

func (m *muteTransport) Broadcast(datagram []byte) error {
	if m.armed.Load() && (datagram[0] == 1 || datagram[0] == totemPacked) {
		m.mute.Store(true)
	}
	if m.mute.Load() {
		return nil
	}
	return m.Endpoint.Broadcast(datagram)
}

// TestAnInvocationOfALostHistoryIsConveyedAgain: a member told it does
// not continue the history the ring keeps conveys again every invocation
// its calls await. n03, a client of the active group on n00..n02, invokes
// and goes mute with the datagram that carries the invocation: n03 alone
// delivers it, in a ring whose history only n03 holds, while the others
// form a ring without it. When it speaks again it merges back and resumes
// at the kept history's horizon (totem's Resumed), which never held the
// invocation. The call must still be answered, and run once at each
// replica, where it used to wait out its timeout.
func TestAnInvocationOfALostHistoryIsConveyedAgain(t *testing.T) {
	var quiet *muteTransport
	d := newDomainVia(t, 4, func(id memnet.NodeID, ep *memnet.Endpoint) totem.Transport {
		if id != "n03" {
			return ep
		}
		quiet = &muteTransport{Endpoint: ep}
		return quiet
	})
	apps := setupClientServer(t, d, Active, 3, 3)
	client := d.rms["n03"]
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "append", octets([]byte("a"))); err != nil {
		t.Fatal(err)
	}

	quiet.armed.Store(true)
	answered := make(chan error, 1)
	go func() {
		_, err := invokeAsClient(t, client, grpClient, 1, grpServer, 2, "append", octets([]byte("b")))
		answered <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return quiet.mute.Load() && len(d.nodes["n00"].Members()) == 3 })
	quiet.armed.Store(false)
	quiet.mute.Store(false)
	if err := <-answered; err != nil {
		t.Fatalf("the call awaiting an invocation of the lost history: %v", err)
	}
	if d.nodes["n03"].Stats().Resumed == 0 {
		t.Fatal("n03 continued the kept history: the test shows nothing")
	}
	for i, a := range apps {
		waitFor(t, 5*time.Second, func() bool { v, _ := a.snapshot(); return string(v) == "ab" })
		if _, ops := a.snapshot(); ops != 2 {
			t.Fatalf("replica %d ran %d operations, want 2", i, ops)
		}
	}
}
