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

// What a leader-mode round trip at r=3 may allocate, client side
// included: what the maps in docs/PERFORMANCE.md account for (5
// payload-sized buffers — the gateway's read, three replicas' results,
// the client's read — and ~34 allocations on the 16 KiB row) plus a
// quarter. The 64 B row holds the fixed cost of a message — headers, part
// lists, ids — which the large row cannot see; its bytes are small
// objects, which the race detector pads, so both rows are a quarter above
// the highest -race figure (93.2 KiB and 39 allocations; 4.0 KiB and 35).
var datapathBudgets = []struct {
	name        string
	payload     int
	kibPerOp    float64
	allocsPerOp float64
	overBy      string
}{
	{"16KiB", 16 << 10, 120, 50, "a payload-sized copy came back (scripts/copymap.sh names it)"},
	{"64B", 64, 5, 44, "the fixed cost of a message grew (scripts/copymap.sh -n names it)"},
}

// budgetDomain stands up the reference benchmark's steady shape — 4
// processors on memnet, leader ordering, active r=3 on the first three,
// one gateway on the fourth — and a client connected to the gateway.
func budgetDomain(t *testing.T) (*domain.Domain, *orb.Conn) {
	t.Helper()
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
	t.Cleanup(d.Close)
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
	t.Cleanup(func() { conn.Close() })
	return d, conn
}

// TestDatapathAllocBudget holds the datapath's copy and allocation diet
// in `go test ./...`: the large_rtt and small_rtt shapes of the reference
// benchmark (4 processors on memnet, leader ordering, active r=3 on the
// first three, one gateway on the fourth, closed-loop echo), measured
// the way the benchmark measures them — process-wide MemStats over the
// window.
//
// scripts/copymap.sh runs the 16KiB row with -memprofilerate=1 to
// attribute every buffer to its call site.
func TestDatapathAllocBudget(t *testing.T) {
	const (
		warmup  = 50
		windows = 3
		ops     = 200
	)
	d, conn := budgetDomain(t)

	for _, b := range datapathBudgets {
		t.Run(b.name, func(t *testing.T) {
			args := experiments.OctetSeqArg(make([]byte, b.payload))
			call := func() {
				if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warmup; i++ {
				call()
			}
			// Background protocol traffic (acks, heartbeats) and a loaded
			// machine only ever add allocations, so the cheapest of a few
			// windows is the datapath's own figure.
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
			t.Logf("%s leader round trip, r=3: %.1f KiB/op, %.0f allocs/op (budget %v KiB, %v allocs)",
				b.name, kib, allocs, b.kibPerOp, b.allocsPerOp)
			if kib > b.kibPerOp {
				t.Errorf("allocated %.1f KiB/op, budget %v: %s", kib, b.kibPerOp, b.overBy)
			}
			if allocs > b.allocsPerOp {
				t.Errorf("%.0f allocs/op, budget %v", allocs, b.allocsPerOp)
			}
		})
	}
}

// TestReplyWindowBoundsTheLiveHeap holds what large_rtt's resident memory
// comes from: the three replicas' operation tables and the gateway
// processor's record keep reply bytes up to replication.ReplyWindow each,
// however large a reply is. 8192 echoes of 16 KiB are 128 MiB of replies:
// bounded by entries alone every replica holds all of them (451 MiB live,
// measured at PR 22), bounded by the window 32 MiB each. Four windows is
// every table full, 64 MiB the rest of the process and what is in flight.
func TestReplyWindowBoundsTheLiveHeap(t *testing.T) {
	const (
		ops     = 8192
		ceiling = 4*replication.ReplyWindow + 64<<20
	)
	d, conn := budgetDomain(t)
	args := experiments.OctetSeqArg(make([]byte, 16<<10))
	for i := 0; i < ops; i++ {
		if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	kept := 0
	for i := 0; i < d.Nodes(); i++ {
		for _, u := range d.Node(i).RM.DedupOccupancy() {
			kept += u.ReplyBytes
		}
		_, recorded, _ := d.Node(i).RM.RecordedReplies()
		kept += recorded
	}
	t.Logf("after %d echoes of 16 KiB: %d MiB live, %d MiB of it replies in the tables (ceiling %d MiB)",
		ops, ms.HeapAlloc>>20, kept>>20, ceiling>>20)
	if ms.HeapAlloc > ceiling {
		t.Errorf("%d MiB live after %d echoes of 16 KiB, ceiling %d MiB (4 x replication.ReplyWindow + 64 MiB): a table is keeping reply bytes past its window",
			ms.HeapAlloc>>20, ops, ceiling>>20)
	}
}
