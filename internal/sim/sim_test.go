package sim

import (
	"reflect"
	"testing"
)

// TestDeterministicReplay is the replay gate: the same seed must
// produce the identical event trace byte-for-byte, for every workload,
// in both of totem's ordering modes, on fault-heavy schedule classes.
func TestDeterministicReplay(t *testing.T) {
	for _, wl := range Workloads() {
		modes := make(map[string]bool)
		for _, seed := range []uint64{1, 17, 42} { // ring, ring, leader
			cfg := Config{Seed: seed, Workload: wl}
			a := Run(cfg)
			b := Run(cfg)
			if a.TraceHash != b.TraceHash {
				t.Fatalf("wl=%s seed=%d: trace hash %016x != %016x on replay", wl, seed, a.TraceHash, b.TraceHash)
			}
			if a.Trace.Dump() != b.Trace.Dump() {
				t.Fatalf("wl=%s seed=%d: trace dumps differ despite equal hashes", wl, seed)
			}
			if a.Schedule != b.Schedule || a.Reason != b.Reason || a.Ordering != b.Ordering {
				t.Fatalf("wl=%s seed=%d: run metadata differs: %q/%q/%q vs %q/%q/%q",
					wl, seed, a.Schedule, a.Reason, a.Ordering, b.Schedule, b.Reason, b.Ordering)
			}
			modes[a.Ordering] = true
		}
		if !modes["ring"] || !modes["leader"] {
			t.Fatalf("wl=%s: the pinned seeds ran %v; the gate needs a seed of each mode", wl, modes)
		}
	}
}

// TestPinnedScheduleReplaysTheSweep: a failing seed's replay line pins
// the schedule class the sweep drew (simrun -seed N -workload W -schedule
// S), and must run what the sweep ran — the same fault plan and the same
// trace — for every seed of every workload.
func TestPinnedScheduleReplaysTheSweep(t *testing.T) {
	for _, wl := range Workloads() {
		for seed := uint64(0); seed < 12; seed++ {
			swept := Run(Config{Seed: seed, Workload: wl})
			pinned := Run(Config{Seed: seed, Workload: wl, Schedule: swept.Schedule})
			if !reflect.DeepEqual(swept.Planned, pinned.Planned) || swept.TraceHash != pinned.TraceHash {
				t.Errorf("wl=%s seed=%d schedule=%s: pinned, the run planned %d steps (trace %016x), the sweep %d (trace %016x)",
					wl, seed, swept.Schedule, len(pinned.Planned), pinned.TraceHash, len(swept.Planned), swept.TraceHash)
			}
		}
	}
}

// TestSeedsFoundWhileRehosting pins the seeds that went red while the
// sim moved onto the shipping totem, each with what it found.
func TestSeedsFoundWhileRehosting(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		found string
	}{
		// A 2|3 split, then a merge of two and two: the minority's history
		// was kept, and what the majority had executed was lost. The
		// leader-mode seed that found it ran a workload since deleted;
		// totem's TestLatestMajorityHistoryIsKept pins the class in both
		// modes.
		{Config{Seed: 10, Workload: WorkloadCounter}, "ring mode: a merge kept the minority's history"},
		// The plan cut both gateways off again after the forced heal, and
		// the operations that would have fired its heal never completed.
		{Config{Seed: 887, Workload: WorkloadCounter}, "a fault fired after the forced heal"},
		// The responses to a gateway's reissue were ordered in a minority
		// that was then discarded, and the gateway owed its record an
		// answer for good.
		{Config{Seed: 585, Workload: WorkloadBank}, "an unanswered record conveyed only at adoption"},
		// Replicas that executed at delivery, not at the stability horizon:
		// members executed an operation the majority never received before
		// a partition cut them off, and the majority ordered the reissue
		// elsewhere (seq-agreement); an operation ran twice on one replica
		// (exactly-once); a transfer broke conservation. The first three
		// broke while replicas reported their own horizon through the
		// order; the last four break when the core's horizon is ignored.
		{Config{Seed: 8, Workload: WorkloadCounter}, "ring mode: executed at delivery, seq-agreement broke"},
		{Config{Seed: 52, Workload: WorkloadBank}, "executed at delivery, seq-agreement and conservation broke"},
		{Config{Seed: 401, Workload: WorkloadBank}, "leader mode: executed at delivery, exactly-once broke"},
		{Config{Seed: 180, Workload: WorkloadCounter}, "leader mode: executed at delivery, seq-agreement broke"},
		{Config{Seed: 289, Workload: WorkloadCounter}, "ring mode: executed at delivery, seq-agreement broke"},
		{Config{Seed: 749, Workload: WorkloadBank}, "leader mode: executed at delivery, seq-agreement and conservation broke"},
		{Config{Seed: 784, Workload: WorkloadBank}, "leader mode: executed at delivery, exactly-once broke"},
		// Replicas that executed at the horizon in a ring that was not
		// primary (ConfigChange.Primary ignored). A third seed ran a
		// workload since deleted; these two pin the class.
		{Config{Seed: 62, Workload: WorkloadCounter}, "leader mode: a minority executed"},
		{Config{Seed: 68, Workload: WorkloadBank}, "leader mode: a minority executed"},
	} {
		res := Run(c.cfg)
		if res.Reason != "completed" || len(res.Violations) > 0 {
			t.Errorf("seed %d (%s, %s ordering; found %s): %s, %v", c.cfg.Seed, c.cfg.Workload, res.Ordering, c.found, res.Reason, res.Violations)
		}
	}
}

// TestInvariantsAcrossClasses sweeps every schedule class against every
// workload with a handful of seeds each. Any invariant violation or a
// run that fails to quiesce before the virtual deadline fails the test
// with the dump pointer a developer needs to replay it.
func TestInvariantsAcrossClasses(t *testing.T) {
	for _, wl := range Workloads() {
		for _, sched := range Schedules() {
			for seed := uint64(0); seed < 5; seed++ {
				res := Run(Config{Seed: seed, Workload: wl, Schedule: sched})
				if res.Reason != "completed" {
					t.Errorf("wl=%s sched=%s seed=%d: run ended with reason %q (replay: simrun -workload %s -schedule %s -seed %d)",
						wl, sched, seed, res.Reason, wl, sched, seed)
				}
				for _, v := range res.Violations {
					t.Errorf("wl=%s sched=%s seed=%d: %s", wl, sched, seed, v)
				}
			}
		}
	}
}

// TestBankAcceptance pins the acceptance bar of the bank workload: the
// cross-domain transfers hold conservation-of-money and exactly-once
// under the partition-during-invocation and kill-token-holder classes.
func TestBankAcceptance(t *testing.T) {
	for _, sched := range []string{SchedPartition, SchedKillHolder} {
		for seed := uint64(0); seed < 15; seed++ {
			res := Run(Config{Seed: seed, Workload: WorkloadBank, Schedule: sched})
			if res.Reason != "completed" {
				t.Errorf("sched=%s seed=%d: reason %q", sched, seed, res.Reason)
			}
			for _, v := range res.Violations {
				t.Errorf("sched=%s seed=%d: %s", sched, seed, v)
			}
		}
	}
}

// TestBridgeCallFailsOver holds a bridge to the thin client's failover
// discipline under the gateway-crash-reply class: every bank run
// completes with conservation and exactly-once, and some run answers a
// bridge call only after it was reissued to the next gateway.
func TestBridgeCallFailsOver(t *testing.T) {
	failedOver := 0
	for seed := uint64(0); seed < 15; seed++ {
		res := Run(Config{Seed: seed, Workload: WorkloadBank, Schedule: SchedGatewayCrash})
		if res.Reason != "completed" {
			t.Errorf("seed=%d: reason %q", seed, res.Reason)
		}
		for _, v := range res.Violations {
			t.Errorf("seed=%d: %s", seed, v)
		}
		// A completed run has every call answered at every node; a call
		// reissued by a node that has not restarted since is one of them.
		reissued := make(map[[2]int]bool)
		for _, e := range res.Trace.Events() {
			switch {
			case e.Kind == EvRestart:
				delete(reissued, [2]int{e.Dom, e.Node})
			case e.Kind == EvReissue && e.Op.Client == bridgeClient:
				reissued[[2]int{e.Dom, e.Node}] = true
			}
		}
		if res.Reason == "completed" && len(reissued) > 0 {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Error("no run answered a bridge call after a reissue")
	}
}

// TestMutationTeeth proves the checkers detect real protocol damage:
// disabling replica-side duplicate suppression or the adoption of the
// snapshot a non-continuing node asks for must surface a violating seed
// within a small budget.
func TestMutationTeeth(t *testing.T) {
	cases := []struct {
		name string
		mut  Mutations
	}{
		{"disable-dedup", Mutations{DisableDedup: true}},
		{"disable-membership-sync", Mutations{DisableMembershipSync: true}},
	}
	for _, tc := range cases {
		found := false
		for seed := uint64(0); seed < 50 && !found; seed++ {
			res := Run(Config{Seed: seed, Mutations: tc.mut})
			found = len(res.Violations) > 0
		}
		if !found {
			t.Errorf("%s: no violating seed in 50 — the checkers have lost their teeth", tc.name)
		}
	}
}

// TestScheduleDescribable ensures every class builds a plan the
// artifact dump can describe, and that calm runs stay fault-free.
func TestScheduleDescribable(t *testing.T) {
	res := Run(Config{Seed: 7, Schedule: SchedCalm})
	if res.Stats.Faults != 0 {
		t.Fatalf("calm run fired %d faults", res.Stats.Faults)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("calm run violated: %v", res.Violations)
	}
	for _, sched := range Schedules() {
		res := Run(Config{Seed: 3, Schedule: sched})
		if res.Schedule != sched {
			t.Fatalf("requested class %q, ran %q", sched, res.Schedule)
		}
	}
}
