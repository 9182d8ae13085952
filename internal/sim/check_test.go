package sim

import "testing"

// Synthetic-trace unit tests: each invariant checker must flag a
// minimal hand-built breach and stay silent on the healthy variant.

func opk(c, b uint64) OpKey { return OpKey{Client: c, B: b} }

func hasInv(vs []Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestCheckExactlyOnce(t *testing.T) {
	ok := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 1},
		{Kind: EvExec, Dom: 0, Node: 1, Group: 0, Op: opk(1, 1), Seq: 1},
	}
	if vs := Check(ok, CheckOpts{}); hasInv(vs, InvExactlyOnce) {
		t.Fatalf("clean trace flagged: %v", vs)
	}
	dup := append(ok, Event{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 2})
	if vs := Check(dup, CheckOpts{}); !hasInv(vs, InvExactlyOnce) {
		t.Fatalf("double execution on one node not flagged: %v", vs)
	}
}

// TestCheckExactlyOncePerIncarnation pins the recovery semantics: a
// node that crashes, restarts, and replays an op from the adopted log
// is legitimate — the duplicate only counts within one incarnation.
func TestCheckExactlyOncePerIncarnation(t *testing.T) {
	replay := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 5},
		{Kind: EvRestart, Dom: 0, Node: 0},
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 5},
	}
	if vs := Check(replay, CheckOpts{}); len(vs) != 0 {
		t.Fatalf("legitimate post-restart replay flagged: %v", vs)
	}
	// Replay at a different seq is NOT legitimate: seq-agreement is
	// global across incarnations.
	bad := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 5},
		{Kind: EvRestart, Dom: 0, Node: 0},
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 7},
	}
	if vs := Check(bad, CheckOpts{}); !hasInv(vs, InvSeqAgreement) {
		t.Fatalf("replay at different seq not flagged: %v", vs)
	}
	// A restart on one node must not excuse a duplicate on another.
	other := []Event{
		{Kind: EvExec, Dom: 0, Node: 1, Group: 0, Op: opk(1, 1), Seq: 5},
		{Kind: EvRestart, Dom: 0, Node: 0},
		{Kind: EvExec, Dom: 0, Node: 1, Group: 0, Op: opk(1, 1), Seq: 5},
	}
	if vs := Check(other, CheckOpts{}); !hasInv(vs, InvExactlyOnce) {
		t.Fatalf("unrelated restart excused a duplicate: %v", vs)
	}
}

func TestCheckSeqAgreement(t *testing.T) {
	tr := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 1},
		{Kind: EvExec, Dom: 0, Node: 1, Group: 0, Op: opk(1, 1), Seq: 2},
	}
	if vs := Check(tr, CheckOpts{}); !hasInv(vs, InvSeqAgreement) {
		t.Fatalf("divergent seqs not flagged: %v", vs)
	}
}

func TestCheckTotalOrder(t *testing.T) {
	tr := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 2},
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 2), Seq: 1},
	}
	if vs := Check(tr, CheckOpts{}); !hasInv(vs, InvTotalOrder) {
		t.Fatalf("decreasing exec stream not flagged: %v", vs)
	}
	// After a restart the stream legitimately rewinds (log replay).
	rewind := []Event{
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 2},
		{Kind: EvRestart, Dom: 0, Node: 0},
		{Kind: EvExec, Dom: 0, Node: 0, Group: 0, Op: opk(1, 1), Seq: 2},
	}
	if vs := Check(rewind, CheckOpts{}); hasInv(vs, InvTotalOrder) {
		t.Fatalf("post-restart replay flagged as order breach: %v", vs)
	}
}

func TestCheckCompletion(t *testing.T) {
	tr := []Event{
		{Kind: EvIssue, Dom: 0, Node: -1, Group: 0, Op: opk(1, 1)},
		{Kind: EvIssue, Dom: 0, Node: -1, Group: 0, Op: opk(1, 2)},
		{Kind: EvReplyOK, Dom: 0, Node: -1, Group: 0, Op: opk(1, 1)},
	}
	vs := Check(tr, CheckOpts{})
	if !hasInv(vs, InvCompletion) {
		t.Fatalf("lost op not flagged: %v", vs)
	}
}

func TestCheckConvergence(t *testing.T) {
	tr := []Event{
		{Kind: EvFinalState, Dom: 0, Node: 0, Group: 0, Hash: 0xaa},
		{Kind: EvFinalState, Dom: 0, Node: 1, Group: 0, Hash: 0xbb},
	}
	if vs := Check(tr, CheckOpts{}); !hasInv(vs, InvConvergence) {
		t.Fatalf("divergent final states not flagged: %v", vs)
	}
}

func TestCheckViewAgreement(t *testing.T) {
	// One (id, lowest member) pair with two member lists.
	tr := []Event{
		{Kind: EvRing, Dom: 0, Node: 0, Quorum: true, Note: "r3[0 1 2]"},
		{Kind: EvRing, Dom: 0, Node: 1, Quorum: true, Note: "r3[0 1 3]"},
	}
	if vs := Check(tr, CheckOpts{}); !hasInv(vs, InvViewAgree) {
		t.Fatalf("conflicting quorum views not flagged: %v", vs)
	}
	// Two rings under one id with no member in common: the two sides of
	// a partition count ring ids up in lockstep.
	lockstep := []Event{
		{Kind: EvRing, Dom: 0, Node: 0, Quorum: true, Note: "r3[0 1 2]"},
		{Kind: EvRing, Dom: 0, Node: 3, Quorum: true, Note: "r3[3 4 5]"},
		{Kind: EvRing, Dom: 0, Node: 4, Quorum: true, Note: "r3[3 4 5]"},
	}
	if vs := Check(lockstep, CheckOpts{}); hasInv(vs, InvViewAgree) {
		t.Fatalf("two rings under one id flagged: %v", vs)
	}
	// Minority (non-quorum) views may disagree freely.
	minority := []Event{
		{Kind: EvRing, Dom: 0, Node: 0, Quorum: false, Note: "r3[0 1]"},
		{Kind: EvRing, Dom: 0, Node: 1, Quorum: false, Note: "r3[0 3]"},
	}
	if vs := Check(minority, CheckOpts{}); hasInv(vs, InvViewAgree) {
		t.Fatalf("minority views flagged: %v", vs)
	}
}

func TestCheckConservation(t *testing.T) {
	tr := []Event{
		{Kind: EvFinalState, Dom: 0, Node: 0, Group: 0, Hash: 1, Val: 4000},
		{Kind: EvFinalState, Dom: 1, Node: 0, Group: 0, Hash: 2, Val: 4012},
	}
	vs := Check(tr, CheckOpts{Bank: true, BankInitial: 8000})
	if !hasInv(vs, InvConservation) {
		t.Fatalf("created money not flagged: %v", vs)
	}
	tr[1].Val = 4000
	if vs := Check(tr, CheckOpts{Bank: true, BankInitial: 8000}); hasInv(vs, InvConservation) {
		t.Fatalf("balanced books flagged: %v", vs)
	}
}

// TestCheckPureOnDump re-runs the checker on a real run's recorded
// events and expects the identical verdict — Check must be a pure
// function of the trace so dumped artifacts can be re-audited offline.
func TestCheckPureOnDump(t *testing.T) {
	res := Run(Config{Seed: 5, Workload: WorkloadBank, Schedule: SchedKillHolder})
	again := Check(res.Trace.Events(), specFor(WorkloadBank).checkOpts())
	if len(again) != len(res.Violations) {
		t.Fatalf("re-check found %d violations, run reported %d", len(again), len(res.Violations))
	}
}
