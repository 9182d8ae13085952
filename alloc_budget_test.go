package eternalgw_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

// What a round trip at r=3 may allocate, client side included. The 16 KiB
// row holds the copies: 5 payload-sized buffers — the gateway's read,
// three replicas' results, the client's read — which the maps in
// docs/PERFORMANCE.md account for. The 64 B rows hold the fixed cost of a
// message — headers, part lists, ids, bookkeeping — which the large row
// cannot see: 64B in leader mode on memnet (the small_rtt shape),
// 64B-udp-ring in ring mode over loopback UDP sockets (the
// udp_ring_ladder shape), the only row whose datagrams pass a socket's
// receive loop; in a closed loop most of them are the token's idle
// rotation, so it counts what a datagram costs as much as what a message
// does. 64B-udp-ring-x32 is that domain with 32 callers at once on the
// connection, udp_ring_ladder's window, through udp_ring_ladder's
// admission policy: the token finds a queue, so messages travel packed,
// and the row counts what a part of a pack costs — its part list, and
// whether the replicas' logs copy it — and what admitting it costs. The
// race detector pads small objects and drops a quarter of what is given
// back to a sync.Pool, so each budget is a quarter above the highest
// -race figure it was set at, rounded down: 93.2 KiB and 8 allocations on
// the 16 KiB row, 4.0 KiB and 4 on the 64 B row, 8.1 KiB and 5 on the UDP
// row, 4.9 KiB and 5 on the pipelined one — the byte figures as they were
// read when those budgets were set, the allocation figures once every
// receiver carved what it receives out of a slab of its own (a UDP
// endpoint its payloads, the gateway its connections' requests, the
// gateway record its copies), as each replica carves its responses. What names
// one of those built in a buffer of its own again is a test beside this
// one in make budget: totem's TestControlDatagramsAllocateNothing for a
// datagram that carries no payload, replication's
// TestResponsesAllocateNothing for a response, udpnet's
// TestReceivedDatagramsAllocateNothing for a received payload.
// The pipelined row's bytes move with the UDP receive rings, which grow
// by 64 KiB slots to the bursts they meet and can grow in a window: it
// reads up to 5.7 KiB without -race, and its budget is 7.
var datapathBudgets = []struct {
	name    string
	udp     bool // ring ordering over udpnet; leader ordering on memnet otherwise
	callers int  // calls in flight on the connection at once
	// admission is the gateway's admission policy; nil admits everything.
	admission   *admission.Config
	payload     int
	kibPerOp    float64
	allocsPerOp float64
	overBy      string
}{
	{"16KiB", false, 1, nil, 16 << 10, 120, 10, "a payload-sized copy came back (scripts/copymap.sh names it)"},
	{"64B", false, 1, nil, 64, 5, 5, "the fixed cost of a message grew (scripts/copymap.sh -n names it)"},
	{"64B-udp-ring", true, 1, nil, 64, 10, 6, "the fixed cost of a message or a datagram grew (scripts/copymap.sh -n names it)"},
	{"64B-udp-ring-x32", true, 32, ladderAdmission, 64, 7, 6, "the fixed cost of a packed or admitted message grew (scripts/copymap.sh -n names it)"},
}

// ladderAdmission is udp_ring_ladder's admission policy (bench/workload.go):
// the 64B-udp-ring-x32 row's gateway admits every request through it, as
// the benchmark's does.
var ladderAdmission = &admission.Config{MaxInFlight: 256, AdmitWait: 100 * time.Millisecond}

// budgetDomain stands up the reference benchmark's steady shape — 4
// processors, active r=3 on the first three, one gateway on the fourth,
// admitting through ac (nil: everything) — and a client connected to the
// gateway: on memnet in leader ordering, or with udp over loopback UDP
// sockets in ring ordering.
func budgetDomain(t *testing.T, udp bool, ac *admission.Config) (*domain.Domain, *orb.Conn) {
	t.Helper()
	return budgetDomainVia(t, udp, ac, nil, nil)
}

// budgetDomainVia is budgetDomain with each processor's UDP endpoint
// handed to via, when it is set, for the transport the processor runs
// over, and the servants made by app, when it is set, instead of
// experiments.RegisterApp.
func budgetDomainVia(t *testing.T, udp bool, ac *admission.Config, via func(*udpnet.Endpoint) totem.Transport, app func() replication.Application) (*domain.Domain, *orb.Conn) {
	t.Helper()
	if app == nil {
		app = func() replication.Application { return &experiments.RegisterApp{} }
	}
	cfg := domain.Config{
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
	}
	if udp {
		registry, err := udpnet.LoopbackRegistry(domain.MemberIDs(cfg.Name, cfg.Nodes)...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Totem.Ordering = totem.OrderingRing
		cfg.TransportFactory = func(id memnet.NodeID) (totem.Transport, error) {
			ep, err := udpnet.Listen(id, registry)
			if err != nil || via == nil {
				return ep, err
			}
			return via(ep), nil
		}
	}
	d, err := domain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if !udp {
		benchWaitFastpath(t, d)
	}
	err = d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     3,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) { return app(), nil })
	if err != nil {
		t.Fatal(err)
	}
	gw, err := d.AddGatewayAdmission(3, "", ac)
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
// first three, one gateway on the fourth, closed-loop echo), and the same
// domain in ring ordering over loopback UDP sockets (udp_ring_ladder's),
// measured the way the benchmark measures them — process-wide MemStats
// over the window.
//
// scripts/copymap.sh runs the 16KiB row with -memprofilerate=1 to
// attribute every buffer to its call site, and -n the three 64 B rows to
// attribute every allocation. Every row makes the same 850 calls, however
// many at a time.
func TestDatapathAllocBudget(t *testing.T) {
	const (
		warmup  = 250
		windows = 3
		ops     = 200
	)
	for _, b := range datapathBudgets {
		t.Run(b.name, func(t *testing.T) {
			d, conn := budgetDomain(t, b.udp, b.admission)
			reconfigs := d.Node(0).Totem.Stats().Reconfigs
			args := experiments.OctetSeqArg(make([]byte, b.payload))
			// The callers are started once, so the windows count no
			// goroutine: each takes a call from todo and reports it on done.
			todo, done := make(chan struct{}), make(chan struct{})
			defer close(todo)
			for c := 0; c < b.callers; c++ {
				go func() {
					for range todo {
						if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
							t.Error(err)
						}
						done <- struct{}{}
					}
				}()
			}
			// calls makes n calls, b.callers at a time.
			calls := func(n int) {
				sent := min(n, b.callers)
				for i := 0; i < sent; i++ {
					todo <- struct{}{}
				}
				for i := 0; i < n; i++ {
					<-done
					if sent < n {
						todo <- struct{}{}
						sent++
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			calls(warmup)
			// Background protocol traffic (acks, heartbeats) and a loaded
			// machine only ever add allocations, so the cheapest of a few
			// windows is the datapath's own figure.
			kib, allocs := math.Inf(1), math.Inf(1)
			for w := 0; w < windows; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				calls(ops)
				runtime.ReadMemStats(&after)
				kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/ops)
				allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/ops)
			}

			for i := 0; i < d.Nodes(); i++ {
				if s := d.Node(i).Totem.Stats(); s.Demotions != 0 {
					t.Skipf("ring left the fast path during the run (%+v); the figures mix modes", s)
				}
			}
			if s := d.Node(0).Totem.Stats(); s.Reconfigs != reconfigs {
				t.Skipf("the ring reconfigured during the run (%+v); the figures include a membership change", s)
			}
			t.Logf("%s round trip, r=3: %.1f KiB/op, %.0f allocs/op (budget %v KiB, %v allocs)",
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

// TestDomainSetUpAllocBudget holds what standing a domain up allocates:
// BenchmarkDomainSetUp's stand-up — four processors, an active group of
// three, a gateway — in leader ordering on memnet, and in ring ordering
// over loopback UDP sockets, the udp_ring_ladder shape, its ports picked
// inside the measured stand-up. A queue allocates what it holds, not its
// bound: allocated at their bounds, the four totem event streams (4096
// events each) and UDP receive rings (64 buffers of 64 KiB each) alone
// come to 1.9 MB and 16 MiB, over either budget. The cheapest of three
// stand-ups is the figure, as the datapath budget takes the cheapest
// window.
func TestDomainSetUpAllocBudget(t *testing.T) {
	for _, b := range []struct {
		name string
		udp  bool
		mb   float64
	}{{"leader", false, 1.25}, {"ring-udp", true, 5}} {
		t.Run(b.name, func(t *testing.T) {
			mb := math.Inf(1)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d, eps := standUp(t, b.udp)
				runtime.ReadMemStats(&after)
				d.Close()
				for _, ep := range eps {
					_ = ep.Close()
				}
				mb = min(mb, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			}
			t.Logf("%s stand-up: %.2f MB (budget %v MB)", b.name, mb, b.mb)
			if mb > b.mb {
				t.Errorf("a stand-up allocated %.2f MB, budget %v MB: a queue is allocated at its bound again, or set-up grew", mb, b.mb)
			}
		})
	}
}

// standUp is one of BenchmarkDomainSetUp's stand-ups: on memnet in leader
// ordering, waiting for the sequencer, or with udp over loopback UDP
// sockets in ring ordering, whose endpoints it returns for the caller to
// close with the domain.
func standUp(t *testing.T, udp bool) (*domain.Domain, []*udpnet.Endpoint) {
	t.Helper()
	var eps []*udpnet.Endpoint
	cfg := domain.Config{
		Name:  "budget",
		Nodes: 4,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
			Ordering:        totem.OrderingLeader,
		},
		GatewayInvokeTimeout: 10 * time.Second,
	}
	if udp {
		registry, err := udpnet.LoopbackRegistry(domain.MemberIDs(cfg.Name, cfg.Nodes)...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Totem.Ordering = totem.OrderingRing
		cfg.TransportFactory = func(id memnet.NodeID) (totem.Transport, error) {
			ep, err := udpnet.Listen(id, registry)
			if err == nil {
				eps = append(eps, ep)
			}
			return ep, err
		}
	}
	d, err := domain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := d.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	if !udp {
		benchWaitFastpath(t, d)
	}
	return d, eps
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
	d, conn := budgetDomain(t, false, nil)
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
