package replication

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
)

// imageState rebuilds the group's state from one member's recovery image
// alone: its checkpoint loaded into a fresh application, then its logged
// suffix executed in order. ok is false while the member has no image.
func imageState(t *testing.T, m *Mechanisms) (state []byte, ok bool) {
	t.Helper()
	m.mu.RLock()
	log := m.groups[grpServer].local.log
	m.mu.RUnlock()
	cp, entries, err := log.Recover(uint32(grpServer))
	if err != nil {
		return nil, false
	}
	app := &regApp{}
	if err := app.SetState(cp.State); err != nil {
		t.Fatalf("%s: checkpoint does not load: %v", m.id, err)
	}
	last := cp.Seq
	for _, e := range entries {
		if e.Seq <= last {
			t.Fatalf("%s: entry at %d after position %d: image out of order or not truncated", m.id, e.Seq, last)
		}
		last = e.Seq
		msg, err := Decode(e.Data)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := giop.Unmarshal(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		req, err := giop.DecodeRequest(wire)
		if err != nil {
			t.Fatal(err)
		}
		orb.InvokeServant(app, req, nil, new(cdr.Reader), new(cdr.Writer))
	}
	state, _ = app.State()
	return state, true
}

// TestRecoveryImageInvariant drives the passive styles through the
// points where warm and cold used to take different code: a backup
// promoted before the primary ever synchronized, one promoted from a
// sync plus a logged suffix, and one that joined by donation, was
// promoted before its first sync and then donates to the next joiner,
// which is promoted in turn. At every stage each servant member's
// recovery image, on its own, must rebuild the live state.
func TestRecoveryImageInvariant(t *testing.T) {
	for _, style := range []Style{ColdPassive, WarmPassive} {
		interval := checkpointInterval
		if style == WarmPassive {
			interval = warmSyncInterval
		}
		for _, tc := range []struct {
			name string
			// solo operations run before the backup joins, paired ones
			// after; the promoted backup must replay exactly replayed.
			solo, paired int
			replayed     uint64
		}{
			{"failover before first sync", 0, 3, 3},
			{"failover after sync with a suffix", 0, interval + 2, 2},
			{"joiner promoted before its first sync then donates", 2, 1, 1},
		} {
			t.Run(style.String()+"/"+tc.name, func(t *testing.T) {
				recoveryScenario(t, style, tc.solo, tc.paired, tc.replayed)
			})
		}
	}
}

func recoveryScenario(t *testing.T, style Style, solo, paired int, replayed uint64) {
	// Five processors: with n00 and n01 crashed, n02's ring still holds
	// most of them, as a failover's replay needs.
	d := newDomain(t, 5)
	d.mustCreate(grpServer, style, testKeyStr)
	d.mustCreate(grpClient, style, "")
	apps := []*regApp{{}, {}, {}}
	d.mustJoin(d.ids[0], grpServer, apps[0])
	d.mustJoin(d.ids[3], grpClient, nil)
	client := d.rms[d.ids[3]]

	var want []byte
	invoke := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			want = append(want, byte('a'+len(want)))
			if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(len(want)), "append", octets(want[len(want)-1:])); err != nil {
				t.Fatal(err)
			}
		}
	}
	// imagesRebuild waits until the image of every listed member rebuilds
	// the primary's live state.
	imagesRebuild := func(primary int, members ...int) {
		t.Helper()
		live, _ := apps[primary].State()
		for _, i := range members {
			var got []byte
			deadline := time.Now().Add(5 * time.Second)
			for {
				var ok bool
				if got, ok = imageState(t, d.rms[d.ids[i]]); ok && bytes.Equal(got, live) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: recovery image rebuilds %q, live state is %q", d.ids[i], got, live)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	promoted := func(i int) {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool {
			v, ops := apps[i].snapshot()
			return bytes.Equal(v, want) && ops == int64(len(want))
		})
	}

	invoke(solo)
	d.mustJoin(d.ids[1], grpServer, apps[1])
	for _, n := range d.ids {
		if err := d.rms[n].WaitForMembers(grpServer, 2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	invoke(paired)
	imagesRebuild(0, 0, 1)

	d.net.Crash(d.ids[0])
	promoted(1)
	waitStat(t, func() uint64 { return d.rms[d.ids[1]].Stats().ReplayedInvocations }, replayed)
	if got := d.rms[d.ids[1]].Stats().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// The promoted backup donates its image to a second joiner, which
	// follows one more operation and is promoted in turn.
	d.mustJoin(d.ids[2], grpServer, apps[2])
	// The donor counts a transfer once its multicast returns, which the
	// joiner's sync can beat.
	waitStat(t, func() uint64 { return d.rms[d.ids[1]].Stats().StateTransfers }, 1)
	invoke(1)
	imagesRebuild(1, 1, 2)
	d.net.Crash(d.ids[1])
	promoted(2)
}

// stallApp is a regApp whose executor can be parked inside Invoke, so a
// test can hold a replica's task queue still while the total order moves
// on.
type stallApp struct {
	regApp
	stall   atomic.Bool
	release chan struct{}
}

func (a *stallApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	if a.stall.Load() {
		<-a.release
	}
	return a.regApp.Invoke(op, args, reply)
}

// TestRetriggeredTransferDoesNotReexecute: a joiner's donor dies between
// the ordered join and its capture, so the next member donates instead —
// later than the join, from a state that already contains the
// invocations the joiner has been holding back since. The joiner must
// not execute those a second time.
func TestRetriggeredTransferDoesNotReexecute(t *testing.T) {
	d := newDomain(t, 4)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	donor := &stallApp{release: make(chan struct{})}
	t.Cleanup(func() { close(donor.release) }) // before the domain's own cleanup
	survivor, joiner := &regApp{}, &regApp{}
	d.mustJoin(d.ids[0], grpServer, donor)
	d.mustJoin(d.ids[1], grpServer, survivor)
	d.mustJoin(d.ids[3], grpClient, nil)
	client := d.rms[d.ids[3]]
	for _, n := range d.ids {
		if err := d.rms[n].WaitForMembers(grpServer, 2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	appendOp := func(i int) {
		t.Helper()
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('0' + i)})); err != nil {
			t.Fatal(err)
		}
	}
	appendOp(1)
	appendOp(2)
	// Park the donor's executor inside operation 3 (the survivor answers
	// it), then order the join: the donor's capture task queues behind
	// the parked operation and is never reached.
	donor.stall.Store(true)
	appendOp(3)
	if err := d.rms[d.ids[2]].JoinGroup(grpServer, joiner); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.ids[1:3] {
		if err := d.rms[n].WaitForMembers(grpServer, 3, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Ordered after the join: the survivor executes these, the joiner
	// holds them back.
	appendOp(4)
	appendOp(5)
	appendOp(6)
	d.net.Crash(d.ids[0])
	if err := d.rms[d.ids[2]].WaitSynced(grpServer, 5*time.Second); err != nil {
		t.Fatalf("joiner never synced from the surviving member: %v", err)
	}
	appendOp(7)
	// The call returns on the first response: wait for both replicas to
	// have executed it, or the one that answered second is read behind.
	waitFor(t, 5*time.Second, func() bool {
		v, _ := joiner.snapshot()
		w, _ := survivor.snapshot()
		return bytes.HasSuffix(v, []byte("7")) && bytes.HasSuffix(w, []byte("7"))
	})
	wantV, wantOps := survivor.snapshot()
	gotV, gotOps := joiner.snapshot()
	if !bytes.Equal(gotV, wantV) || gotOps != wantOps || wantOps != 7 {
		t.Fatalf("joiner state = %q after %d ops, survivor's = %q after %d: held-back invocations the donated state already contained were executed again",
			gotV, gotOps, wantV, wantOps)
	}
}

// refusingApp is a regApp whose State fails a set number of times.
type refusingApp struct {
	regApp
	refusals atomic.Int32 // State calls still to fail
	asked    atomic.Int32 // State calls so far
}

func (a *refusingApp) State() ([]byte, error) {
	a.asked.Add(1)
	if a.refusals.Add(-1) >= 0 {
		return nil, errors.New("refusingApp: state unavailable")
	}
	return a.regApp.State()
}

// TestFailedCaptureIsRetriedOnTheNextDelta: a donor whose capture could
// not be cut still owes the joiner its state, and the next membership
// delta of the group must queue the capture again instead of finding it
// marked as queued for good.
func TestFailedCaptureIsRetriedOnTheNextDelta(t *testing.T) {
	d := newDomain(t, 3)
	d.mustCreate(grpServer, Active, testKeyStr)
	donor := &refusingApp{}
	d.mustJoin(d.ids[0], grpServer, donor)
	donor.refusals.Store(1)
	joiner := d.rms[d.ids[1]]
	if err := joiner.JoinGroup(grpServer, &regApp{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return donor.asked.Load() == 1 })
	if err := joiner.WaitSynced(grpServer, 50*time.Millisecond); err == nil {
		t.Fatal("joiner synced although the donor's capture failed")
	}
	// Any delta will do: a third member comes, and the donor owes two.
	d.mustJoin(d.ids[2], grpServer, &regApp{})
	if err := joiner.WaitSynced(grpServer, 5*time.Second); err != nil {
		t.Fatalf("the failed capture was never retried: %v", err)
	}
	// The donor counts a transfer once its multicast returns, on its own
	// executor, and the joiners sync where they are delivered it: the
	// count may trail WaitSynced, so it is waited for.
	waitStat(t, func() uint64 { return d.rms[d.ids[0]].Stats().StateTransfers }, 2)
}

// TestRecreatedGroupDonatesFreshImage: a group id retired by DeleteGroup
// and created again starts from nothing. The first member of the new
// incarnation — on the processor that hosted the old one — must donate
// what it has executed since, not the checkpoint the old incarnation
// left behind.
func TestRecreatedGroupDonatesFreshImage(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, Active, 1, 2)
	client := d.rms[d.ids[2]]
	const old = checkpointInterval + 1
	for i := 1; i <= old; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte("o"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ops := apps[0].snapshot(); ops != old {
		t.Fatalf("old incarnation executed %d ops, want %d", ops, old)
	}
	if err := client.DeleteGroup(grpServer); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.ids {
		waitFor(t, 3*time.Second, func() bool {
			_, ok := groupStyle(d.rms[n], grpServer)
			return !ok
		})
	}

	d.mustCreate(grpServer, Active, testKeyStr)
	first, second := &regApp{}, &regApp{}
	d.mustJoin(d.ids[0], grpServer, first)
	if _, err := invokeAsClient(t, client, grpClient, 2, grpServer, 1, "append", octets([]byte("n"))); err != nil {
		t.Fatal(err)
	}
	d.mustJoin(d.ids[1], grpServer, second)
	wantV, wantOps := first.snapshot()
	gotV, gotOps := second.snapshot()
	if !bytes.Equal(gotV, wantV) || gotOps != wantOps || wantOps != 1 {
		t.Fatalf("joiner state = %q after %d ops, donor's = %q after %d: the retired incarnation's image was donated",
			gotV, gotOps, wantV, wantOps)
	}
}

// appended is what the register holds after appends 1..n that each add
// their own letter, 'a' for the first.
func appended(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i)
	}
	return v
}

// TestSecondCopyBehindACheckpointIsNotLogged: an invocation delivered a
// second time — totem re-sends a forward it had still awaited when the
// ring changed, a gateway reissues — with a checkpoint cut between the
// two copies. The primary suppresses the second; a backup that logged it
// would hold it behind a checkpoint that has truncated the first, and on
// promotion execute the operation again against an empty table
// (bench failover_passive, seed 2204). A backup logs first copies alone,
// whether it saw the first delivered or was donated it.
func TestSecondCopyBehindACheckpointIsNotLogged(t *testing.T) {
	for _, style := range []Style{WarmPassive, ColdPassive} {
		t.Run(style.String(), func(t *testing.T) {
			d := newDomain(t, 4)
			apps := setupClientServer(t, d, style, 2, 3)
			client := d.rms[d.ids[3]]
			appendOp := func(i int) {
				t.Helper()
				if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('a' + i - 1)})); err != nil {
					t.Fatal(err)
				}
			}
			cutAt := func(m *Mechanisms) uint64 {
				m.mu.RLock()
				defer m.mu.RUnlock()
				cp, _, _ := m.groups[grpServer].local.log.Recover(uint32(grpServer))
				return cp.OpCount
			}
			// Operations 1..cut-1, then a joiner donated an image whose
			// suffix holds those past the warm style's last cut, or all of
			// them (cold: cut on the spot at the first join, at 0), then
			// cut: both styles cut there.
			const cut = checkpointInterval // a multiple of warmSyncInterval
			for i := 1; i < cut; i++ {
				appendOp(i)
			}
			d.mustJoin(d.ids[2], grpServer, &regApp{})
			appendOp(cut)
			for _, n := range d.ids[1:3] {
				waitFor(t, 5*time.Second, func() bool { return cutAt(d.rms[n]) == cut })
			}
			// Second copies of cut, which both backups saw delivered, and
			// of cut-1, which the joiner was donated: behind the cut only
			// the log tells them from first copies.
			appendOp(cut)
			appendOp(cut - 1)
			appendOp(cut + 1)
			d.net.Crash(d.ids[0])
			waitFor(t, 5*time.Second, func() bool { return d.rms[d.ids[1]].Stats().Failovers == 1 })
			appendOp(cut + 2)
			if v, ops := apps[1].snapshot(); ops != cut+2 || !bytes.Equal(v, appended(cut+2)) {
				t.Fatalf("promoted backup holds %q after %d operations, want %q after %d: a second copy was logged and replayed", v, ops, appended(cut+2), cut+2)
			}
			if n := logLen(t, d.rms[d.ids[2]]); n > 2 {
				t.Fatalf("the donated backup's log holds %d entries behind the cut at %d, want the two after it alone", n, cut)
			}
		})
	}
}

// TestReissueBehindACheckpointAfterPromotionIsNotExecuted: the second
// copy arrives after the promotion, the first behind the checkpoint the
// backup loaded. The backup noted the identifier when it logged the first
// copy and keeps it through the truncation and the promotion, so the
// reissue is suppressed — answered with the named exception, the reply
// having died with the primary — where it used to meet an empty table and
// run. An operation in the log suffix was run by the failover itself, and
// its reissue gets the reply.
func TestReissueBehindACheckpointAfterPromotionIsNotExecuted(t *testing.T) {
	for _, style := range []Style{WarmPassive, ColdPassive} {
		t.Run(style.String(), func(t *testing.T) {
			d := newDomain(t, 4)
			apps := setupClientServer(t, d, style, 2, 3)
			client, backup := d.rms[d.ids[3]], d.rms[d.ids[1]]
			appendOp := func(i int) giop.Reply {
				t.Helper()
				rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('a' + i - 1)}))
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			// Both styles cut at cut; cut+1 is the backup's log suffix.
			const cut = checkpointInterval // a multiple of warmSyncInterval
			for i := 1; i <= cut+1; i++ {
				appendOp(i)
			}
			waitFor(t, 5*time.Second, func() bool { return logLen(t, backup) == 1 })
			d.net.Crash(d.ids[0])
			waitFor(t, 5*time.Second, func() bool { return backup.Stats().Failovers == 1 })
			waitStat(t, func() uint64 { return backup.Stats().ReplayedInvocations }, 1)

			wantReplyDiscarded(t, appendOp(cut))
			if rep := appendOp(cut + 1); rep.Status != giop.ReplyNoException {
				t.Fatalf("reissue of the replayed operation: status %v, want its reply", rep.Status)
			}
			appendOp(cut + 2)
			if v, ops := apps[1].snapshot(); ops != cut+2 || !bytes.Equal(v, appended(cut+2)) {
				t.Fatalf("promoted backup holds %q after %d operations, want %q after %d: a reissue ran", v, ops, appended(cut+2), cut+2)
			}
			if got := backup.Stats().DuplicatesBeyondWindow; got != 1 {
				t.Fatalf("duplicates beyond the window = %d, want the reissue of the operation at the cut alone", got)
			}
		})
	}
}

// logLen is how many invocations a member's log holds for grpServer.
func logLen(t *testing.T, m *Mechanisms) int {
	t.Helper()
	return serverLog(t, m).EntryCount(uint32(grpServer))
}

// serverLog is a member's recovery log for grpServer. A member that comes
// back behind the kept history's horizon closes the replicas it hosted,
// by design: the test then fails, naming the member.
func serverLog(t *testing.T, m *Mechanisms) *logrec.Log {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	g := m.groups[grpServer]
	if g == nil || g.local == nil {
		t.Fatalf("%s hosts no replica of group %d: it left the ring and came back behind the kept history's horizon", m.id, grpServer)
	}
	return g.local.log
}

// TestJoinOfADepartedProcessorIsNotListed: a join is delivered after its
// joiner left the ring. A processor that crashes halfway through
// broadcasting its own join has that message delivered in the ring after
// it (docs/FAULT_MODEL.md), and a founding delta names every processor the
// Replication Manager armed, one of which may crash before the delta is
// ordered. Every survivor applies such a delta in a ring the joiner is not
// in: none lists the joiner, all agree on the view, and the passive group
// the delta finds empty gets a live primary. (Before, the departed joiner
// was listed for good — no later ring change evicts a processor that is
// already gone — the passive group's primary and state donor with it, so
// the next joiner waited for ever for its state.)
func TestJoinOfADepartedProcessorIsNotListed(t *testing.T) {
	d := newDomain(t, 4)
	gone, survivors := d.ids[3], d.ids[:3]
	d.mustCreate(grpServer, WarmPassive, testKeyStr)
	d.mustCreate(grpClient, WarmPassive, "")
	d.net.Crash(gone)
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range survivors {
			if len(d.nodes[n].Members()) != len(survivors) {
				return false
			}
		}
		return true
	})

	// The departed processor's own join, as a survivor retransmits it in the
	// ring after it; then a survivor joins behind it.
	if err := d.rms[survivors[0]].changeView(grpServer, viewChangePayload{Add: []memnet.NodeID{gone}}); err != nil {
		t.Fatal(err)
	}
	d.mustJoin(survivors[1], grpServer, &regApp{})
	// A founding delta that names the departed processor first.
	for _, n := range survivors[1:] {
		if err := d.rms[n].Arm(grpClient, &regApp{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.rms[survivors[0]].AddMembers(grpClient, gone, survivors[1], survivors[2]); err != nil {
		t.Fatal(err)
	}
	for _, n := range survivors[1:] {
		if err := d.rms[n].WaitSynced(grpClient, 5*time.Second); err != nil {
			t.Fatalf("%s: founder of group %d: %v", n, grpClient, err)
		}
	}

	want := fmt.Sprintf("[%d: view 2 [%s] %d: view 2 [%s %s]]", grpServer, survivors[1], grpClient, survivors[1], survivors[2])
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range survivors {
			if d.rms[n].directory() != want {
				return false
			}
		}
		return true
	})
	for _, g := range []GroupID{grpServer, grpClient} {
		rm := d.rms[survivors[1]]
		rm.mu.RLock()
		primary := rm.groups[g].local.primary
		rm.mu.RUnlock()
		if !primary {
			t.Fatalf("group %d: %s, listed first, is not its primary", g, survivors[1])
		}
	}
}

// TestFoundedBackupRecoversBeforeAnyCheckpoint: a passive group founded in
// one view, its primary lost before any checkpoint reached the backup. A
// founding backup was donated nothing, so its first checkpoint is the
// initial state, cut before anything ran: the promoted backup loads it and
// replays every invocation since, in both passive styles. (Without it a
// cold backup had no image to recover from and served an empty state.)
func TestFoundedBackupRecoversBeforeAnyCheckpoint(t *testing.T) {
	for _, style := range []Style{WarmPassive, ColdPassive} {
		t.Run(style.String(), func(t *testing.T) {
			d := newDomain(t, 3)
			d.mustCreate(grpServer, style, testKeyStr)
			d.mustCreate(grpClient, style, "")
			apps := []*regApp{{}, {}}
			for i, app := range apps {
				if err := d.rms[d.ids[i]].Arm(grpServer, app); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.rms[d.ids[2]].AddMembers(grpServer, d.ids[0], d.ids[1]); err != nil {
				t.Fatal(err)
			}
			d.mustJoin(d.ids[2], grpClient, nil)
			for _, n := range d.ids {
				if err := d.rms[n].WaitForMembers(grpServer, 2, 5*time.Second); err != nil {
					t.Fatalf("%s: members: %v", n, err)
				}
			}
			client := d.rms[d.ids[2]]
			for i := 1; i <= 3; i++ { // fewer than either interval
				if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('a' + i - 1)})); err != nil {
					t.Fatal(err)
				}
			}
			d.net.Crash(d.ids[0])
			waitFor(t, 5*time.Second, func() bool {
				v, ops := apps[1].snapshot()
				return ops == 3 && bytes.Equal(v, []byte("abc"))
			})
			if s := d.rms[d.ids[1]].Stats(); s.Failovers != 1 || s.StateTransfers != 0 {
				t.Fatalf("backup: %d failovers, %d transfers; want 1 and none", s.Failovers, s.StateTransfers)
			}
		})
	}
}
