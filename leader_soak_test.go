// Leader-crash soak for the totem ordering fast path: a domain runs
// with `Ordering: leader`, thin clients append unique markers at full
// load, and the fault plan crashes the promoted sequencer mid-storm and
// restarts it later. Run under -race by `make soak-leader`. The
// assertions are the fast path's safety contract: every marker lands in
// the replicated state exactly once and in one total order across the
// demotion to ring rotation and the subsequent agreed re-promotion —
// leader failure may cost latency, never correctness.
package eternalgw_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/faultinject"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

// soakWaitFastpath polls until every node in ids agrees on the same
// (sequencer, start sequence) pair, returning them. The agreement is
// the point: a promotion is only usable once the whole ring switched
// modes at the same agreed sequence.
func soakWaitFastpath(t *testing.T, d *domain.Domain, ids []int) (memnet.NodeID, uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var (
			leader memnet.NodeID
			start  uint64
			agreed = true
		)
		for _, i := range ids {
			l, s, ok := d.Node(i).Totem.Fastpath()
			if !ok || (leader != "" && (l != leader || s != start)) {
				agreed = false
				break
			}
			leader, start = l, s
		}
		if agreed {
			return leader, start
		}
		if time.Now().After(deadline) {
			t.Fatal("nodes never agreed on a sequencer")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaderCrashSoak(t *testing.T) {
	const clients = 16
	calls := 25
	if testing.Short() {
		calls = 8
	}
	total := clients * calls

	d, err := domain.New(domain.Config{
		Name:  "leader-soak",
		Nodes: 5,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
			Ordering:        totem.OrderingLeader,
		},
		GatewayInvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	err = d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     2,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) { return &experiments.RegisterApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(3, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(4, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR(benchType, []byte(benchKey))
	if err != nil {
		t.Fatal(err)
	}

	// Load must start against the fast path, not the ring warming up to
	// it; promotion needs quiescence, so wait before the storm begins.
	allNodes := []int{0, 1, 2, 3, 4}
	leader1, start1 := soakWaitFastpath(t, d, allNodes)
	victim := -1
	for _, i := range allNodes {
		if d.Node(i).ID == leader1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatalf("sequencer %s is not a domain node", leader1)
	}

	// The fault plan kills the sequencer a third of the way through the
	// storm and brings the processor back at two thirds. Thresholds are
	// operation counts so the schedule reproduces regardless of machine
	// speed; the actions run on their own goroutines so no client loop
	// stalls behind them.
	var faultWG sync.WaitGroup
	plan := faultinject.NewPlan(
		faultinject.Step{AtOp: uint64(total / 3), Name: "crash-sequencer", Action: func() {
			faultWG.Add(1)
			go func() {
				defer faultWG.Done()
				d.CrashNode(victim)
			}()
		}},
		faultinject.Step{AtOp: uint64(2 * total / 3), Name: "restart-sequencer", Action: func() {
			faultWG.Add(1)
			go func() {
				defer faultWG.Done()
				d.RestartNode(victim)
			}()
		}},
	)

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint32) {
			defer wg.Done()
			tc, err := thinclient.Dial(ref, thinclient.Config{
				CallTimeout:  10 * time.Second,
				MaxRounds:    500,
				ShedBackoff:  500 * time.Microsecond,
				ShedFailover: 8,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = tc.Close() }()
			for i := 0; i < calls; i++ {
				if _, err := tc.Call("append", experiments.OctetSeqArg(marker(c, uint32(i)))); err != nil {
					errCh <- err
					return
				}
				plan.Tick()
			}
		}(uint32(c))
	}
	wg.Wait()
	faultWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if fired := plan.FiredAt(); len(fired) != len(plan.Steps()) {
		t.Fatalf("fault plan incomplete: fired %v after %d ops", fired, plan.Ops())
	}

	// The sequencer's death must have forced the survivors off the fast
	// path (demotion is what keeps the crash safe), and once the storm
	// ended and the ring went quiescent again, a fresh promotion must
	// have installed a sequencer every node agrees on.
	var demotions uint64
	for _, i := range allNodes {
		demotions += d.Node(i).Totem.Stats().Demotions
	}
	if demotions == 0 {
		t.Fatal("sequencer crashed but no node ever demoted to ring rotation")
	}
	leader2, start2 := soakWaitFastpath(t, d, allNodes)
	if leader2 == leader1 && start2 == start1 {
		t.Fatalf("post-crash sequencer is still the original promotion (%s at %d)", leader1, start1)
	}

	// Exactly-once audit: the replicated register holds every marker
	// exactly once, despite any forwards the demotion re-queued and any
	// batches the dead sequencer had in flight.
	tc, err := thinclient.Dial(ref, thinclient.Config{
		CallTimeout:  10 * time.Second,
		MaxRounds:    500,
		ShedBackoff:  500 * time.Microsecond,
		ShedFailover: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	r, err := tc.Call("ops", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != int64(total) {
		t.Fatalf("replicas executed %d ops, want exactly %d", got, total)
	}
	r, err = tc.Call("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	value := r.ReadOctetSeq()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(value) != total*8 {
		t.Fatalf("register holds %d bytes, want %d (markers lost or duplicated)", len(value), total*8)
	}
	seen := make(map[uint64]int, total)
	for off := 0; off < len(value); off += 8 {
		seen[binary.BigEndian.Uint64(value[off:])]++
	}
	for c := uint32(0); c < clients; c++ {
		for i := uint32(0); i < uint32(calls); i++ {
			if n := seen[binary.BigEndian.Uint64(marker(c, i))]; n != 1 {
				t.Fatalf("marker client=%d call=%d appended %d times, want exactly once", c, i, n)
			}
		}
	}
}
