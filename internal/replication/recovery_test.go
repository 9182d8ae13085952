package replication

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
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
		t.Fatalf("%s: checkpoint does not load: %v", m.NodeID(), err)
	}
	last := cp.Seq
	for _, e := range entries {
		if e.Seq <= last {
			t.Fatalf("%s: entry at %d after position %d: image out of order or not truncated", m.NodeID(), e.Seq, last)
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
		orb.InvokeServant(app, req, nil)
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
		interval := 8 // the harness's CheckpointInterval
		if style == WarmPassive {
			interval = 4 // and its WarmSyncInterval
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
	d := newDomain(t, 4)
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
	if got := d.rms[d.ids[1]].Stats().StateTransfers; got != 1 {
		t.Fatalf("promoted backup donated %d transfers, want 1", got)
	}
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
	waitFor(t, 5*time.Second, func() bool {
		v, _ := joiner.snapshot()
		return bytes.HasSuffix(v, []byte("7"))
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
	if got := d.rms[d.ids[0]].Stats().StateTransfers; got != 2 {
		t.Fatalf("donor counts %d state transfers, want the 2 it sent", got)
	}
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
	for i := 1; i <= 9; i++ { // past the harness's CheckpointInterval of 8
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte("o"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ops := apps[0].snapshot(); ops != 9 {
		t.Fatalf("old incarnation executed %d ops, want 9", ops)
	}
	if err := client.DeleteGroup(grpServer); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.ids {
		waitFor(t, 3*time.Second, func() bool {
			_, ok := d.rms[n].GroupStyle(grpServer)
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
			// Operations 1..7, then a joiner donated an image whose suffix
			// holds 5..7 (warm: cut at 4) or 1..7 (cold: cut on the spot
			// at the first join, at 0), then 8: both styles cut there.
			for i := 1; i <= 7; i++ {
				appendOp(i)
			}
			d.mustJoin(d.ids[2], grpServer, &regApp{})
			appendOp(8)
			for _, n := range d.ids[1:3] {
				waitFor(t, 5*time.Second, func() bool { return cutAt(d.rms[n]) == 8 })
			}
			// Second copies of 8, which both backups saw delivered, and of
			// 7, which the joiner was donated: behind the cut at 8 only the
			// log tells them from first copies.
			appendOp(8)
			appendOp(7)
			appendOp(9)
			d.net.Crash(d.ids[0])
			waitFor(t, 5*time.Second, func() bool { return d.rms[d.ids[1]].Stats().Failovers == 1 })
			appendOp(10)
			if v, ops := apps[1].snapshot(); ops != 10 || !bytes.Equal(v, []byte("abcdefghij")) {
				t.Fatalf("promoted backup holds %q after %d operations, want %q after 10: a second copy was logged and replayed", v, ops, "abcdefghij")
			}
			if n := logLen(d.rms[d.ids[2]]); n > 2 {
				t.Fatalf("the donated backup's log holds %d entries behind the cut at 8, want 9 and 10 alone", n)
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
			// Both styles cut at 8; 9 is the backup's log suffix.
			for i := 1; i <= 9; i++ {
				appendOp(i)
			}
			waitFor(t, 5*time.Second, func() bool { return logLen(backup) == 1 })
			d.net.Crash(d.ids[0])
			waitFor(t, 5*time.Second, func() bool { return backup.Stats().Failovers == 1 })
			waitStat(t, func() uint64 { return backup.Stats().ReplayedInvocations }, 1)

			wantReplyDiscarded(t, appendOp(8))
			if rep := appendOp(9); rep.Status != giop.ReplyNoException {
				t.Fatalf("reissue of the replayed operation: status %v, want its reply", rep.Status)
			}
			appendOp(10)
			if v, ops := apps[1].snapshot(); ops != 10 || !bytes.Equal(v, []byte("abcdefghij")) {
				t.Fatalf("promoted backup holds %q after %d operations, want %q after 10: a reissue ran", v, ops, "abcdefghij")
			}
			if got := backup.Stats().DuplicatesBeyondWindow; got != 1 {
				t.Fatalf("duplicates beyond the window = %d, want the reissue of 8 alone", got)
			}
		})
	}
}

// logLen is how many invocations a member's log holds for grpServer.
func logLen(m *Mechanisms) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.groups[grpServer].local.log.EntryCount(uint32(grpServer))
}
