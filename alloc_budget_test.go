package eternalgw_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// The budget a 16 KiB leader-mode round trip at r=3 may allocate, client
// side included. The copy map in docs/PERFORMANCE.md accounts for what
// is left (~24 payload-sized buffers, ~140 allocations); the budget sits
// a quarter above that, far below the ~64 buffers the path cost before
// totem decoded in place and each IIOP message was encapsulated once.
const (
	budgetKiBPerOp    = 560
	budgetAllocsPerOp = 185
)

// TestDatapathAllocBudget holds the datapath's copy and allocation diet
// in `go test ./...`: the large_rtt shape of the reference benchmark (4
// processors on memnet, leader ordering, active r=3 on the first three,
// one gateway on the fourth, closed-loop 16 KiB echo), measured the way
// the benchmark measures it — process-wide MemStats over the window.
//
// scripts/copymap.sh runs this test with -memprofilerate=1 to attribute
// every buffer to its call site.
func TestDatapathAllocBudget(t *testing.T) {
	const (
		payload = 16 << 10
		warmup  = 50
		windows = 3
		ops     = 200
	)
	d, err := domain.New(domain.Config{
		Name:  "budget",
		Nodes: 4,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			// Nothing fails here; a generous timeout keeps a stall of
			// the machine from reconfiguring the ring mid-window.
			FailTimeout:   time.Second,
			GatherTimeout: 20 * time.Millisecond,
			Ordering:      totem.OrderingLeader,
		},
		GatewayInvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	benchWaitFastpath(t, d)
	err = d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     3,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) { return &experiments.RegisterApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	gw, err := d.AddGateway(3, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	args := experiments.OctetSeqArg(make([]byte, payload))
	call := func() {
		if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		call()
	}
	// Background protocol traffic (acks, heartbeats) and a loaded machine
	// only ever add allocations, so the cheapest of a few windows is the
	// datapath's own figure.
	kib, allocs := math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/ops)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/ops)
	}

	for i := 0; i < d.Nodes(); i++ {
		if s := d.Node(i).Totem.Stats(); s.Demotions != 0 {
			t.Skipf("ring left the fast path during the run (%+v); the figures mix modes", s)
		}
	}
	t.Logf("16 KiB leader round trip, r=3: %.0f KiB/op, %.0f allocs/op (budget %d KiB, %d allocs)",
		kib, allocs, budgetKiBPerOp, budgetAllocsPerOp)
	if kib > budgetKiBPerOp {
		t.Errorf("allocated %.0f KiB/op, budget %d: a payload-sized copy came back (scripts/copymap.sh names it)", kib, budgetKiBPerOp)
	}
	if allocs > budgetAllocsPerOp {
		t.Errorf("%.0f allocs/op, budget %d", allocs, budgetAllocsPerOp)
	}
}
