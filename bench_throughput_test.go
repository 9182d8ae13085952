// Throughput benchmarks for the gateway datapath: single-client round
// trips, multi-client concurrent load with small and large payloads, a
// multi-group sweep, and a replication-degree sweep. BENCH_pr2.json
// records the first two before and after the datapath (send-side)
// overhaul; BENCH_pr3.json records the multi-client and degree sweeps
// before and after the receive-path overhaul (header-first lazy decode,
// sharded pending table, early duplicate-response discard).
//
// Run with: make bench. A/B against a ref with: make bench-compare
// (which overlays this file onto the ref's tree, so every helper the
// benchmarks need beyond bench_test.go must live here).
package eternalgw_test

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// throughputSizes are the request payload sizes the suite sweeps: a
// small control-plane-like payload and a large data-plane one.
var throughputSizes = []struct {
	name string
	n    int
}{
	{"small", 64},
	{"large", 16 << 10},
}

// BenchmarkGatewayRoundTrip measures one full client->gateway->domain
// round trip per iteration (the figure 5 loops), per payload size.
func BenchmarkGatewayRoundTrip(b *testing.B) {
	for _, size := range throughputSizes {
		b.Run(size.name, func(b *testing.B) {
			d := benchDomain(b, 3)
			benchDeploy(b, d, replication.Active, 2)
			gw, err := d.AddGateway(2, "")
			if err != nil {
				b.Fatal(err)
			}
			conn, err := orb.Dial(gw.Addr())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = conn.Close() })
			args := experiments.OctetSeqArg(make([]byte, size.n))
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDomainOrdering is benchDomain with the totem ordering mode
// exposed; it lives in this file (not bench_test.go) on purpose: when
// bench-compare overlays this file onto a ref predating the leader fast
// path, the overlay fails to build and the script falls back to the
// ref's own suite, which is the honest baseline.
func benchDomainOrdering(b *testing.B, nodes int, mode totem.OrderingMode) *domain.Domain {
	b.Helper()
	d, err := domain.New(domain.Config{
		Name:  "bench",
		Nodes: nodes,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
			Ordering:        mode,
		},
		GatewayInvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	if mode == totem.OrderingLeader {
		benchWaitFastpath(b, d)
	}
	return d
}

// benchWaitFastpath blocks until every node in the domain agrees on the
// same sequencer. Promotion needs a quiescent ring (stable == seq with
// no retransmissions), so timing must not start before it happens —
// otherwise early iterations measure ring mode.
func benchWaitFastpath(tb testing.TB, d *domain.Domain) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		agreed := true
		var leader string
		for i := 0; i < d.Nodes(); i++ {
			l, _, ok := d.Node(i).Totem.Fastpath()
			if !ok || (leader != "" && string(l) != leader) {
				agreed = false
				break
			}
			leader = string(l)
		}
		if agreed {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatal("fast path never promoted")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkDomainSetUp is one stand-up of a domain per iteration, as the
// reference benchmark stands one up before it times anything (its
// setup_s): four processors, an active group of three, one gateway and,
// in leader mode, a sequencer every processor has adopted. The ring-udp
// row runs the ring over loopback UDP sockets, as udp_ring_ladder does,
// its ports picked inside the timed stand-up. Closing the domain is not
// timed.
func BenchmarkDomainSetUp(b *testing.B) {
	for _, m := range []struct {
		name string
		mode totem.OrderingMode
		udp  bool
	}{{"ring", totem.OrderingRing, false}, {"leader", totem.OrderingLeader, false}, {"ring-udp", totem.OrderingRing, true}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var eps []*udpnet.Endpoint
				cfg := domain.Config{
					Name:  "bench",
					Nodes: 4,
					Totem: totem.Config{
						IdleHold:        100 * time.Microsecond,
						TokenRetransmit: 10 * time.Millisecond,
						FailTimeout:     80 * time.Millisecond,
						GatherTimeout:   20 * time.Millisecond,
						Ordering:        m.mode,
					},
					GatewayInvokeTimeout: 10 * time.Second,
				}
				if m.udp {
					registry := benchUDPRegistry(b, cfg.Nodes)
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
					b.Fatal(err)
				}
				benchDeployAt(b, d, replication.Active, 3, benchGroup, benchKey)
				if _, err := d.AddGateway(0, ""); err != nil {
					b.Fatal(err)
				}
				if m.mode == totem.OrderingLeader {
					benchWaitFastpath(b, d)
				}
				b.StopTimer()
				d.Close()
				for _, ep := range eps {
					_ = ep.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkGatewayRoundTripLeader is BenchmarkGatewayRoundTrip with the
// ring in leader ordering mode: the latency figure the fast path exists
// to improve. Compare against the plain RoundTrip rows (the ring-mode
// ablation), which must stay where they were.
func BenchmarkGatewayRoundTripLeader(b *testing.B) {
	for _, size := range throughputSizes {
		b.Run(size.name, func(b *testing.B) {
			d := benchDomainOrdering(b, 3, totem.OrderingLeader)
			benchDeploy(b, d, replication.Active, 2)
			gw, err := d.AddGateway(2, "")
			if err != nil {
				b.Fatal(err)
			}
			conn, err := orb.Dial(gw.Addr())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = conn.Close() })
			args := experiments.OctetSeqArg(make([]byte, size.n))
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if demoted := d.Node(0).Totem.Stats().Demotions; demoted != 0 {
				b.Fatalf("fast path demoted %d times during the run; figures mix modes", demoted)
			}
		})
	}
}

// BenchmarkGatewayMultiClientLeader is the c=16 multi-client shape in
// leader mode, checking the fast path also holds up when many payloads
// land per sequencer visit (the shape packing serves in ring mode).
func BenchmarkGatewayMultiClientLeader(b *testing.B) {
	for _, size := range throughputSizes {
		b.Run(fmt.Sprintf("c=16/%s", size.name), func(b *testing.B) {
			d := benchDomainOrdering(b, 3, totem.OrderingLeader)
			benchDeploy(b, d, replication.Active, 2)
			gw, err := d.AddGateway(2, "")
			if err != nil {
				b.Fatal(err)
			}
			conns := make([]*orb.Conn, 16)
			for i := range conns {
				c, err := orb.Dial(gw.Addr())
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = c.Close() })
				conns[i] = c
			}
			args := experiments.OctetSeqArg(make([]byte, size.n))
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			runClients(b, conns, func(int) []byte { return []byte(benchKey) }, args)
		})
	}
}

// benchUDPNodeID names the i-th processor of a UDP bench domain, as
// domain.New names the processors of a domain called "bench".
func benchUDPNodeID(i int) memnet.NodeID { return memnet.NodeID(fmt.Sprintf("bench/p%02d", i)) }

// benchUDPRegistry picks free localhost ports for a bench domain's
// processors.
func benchUDPRegistry(b *testing.B, nodes int) udpnet.Registry {
	b.Helper()
	ids := make([]memnet.NodeID, nodes)
	for i := range ids {
		ids[i] = benchUDPNodeID(i)
	}
	registry, err := udpnet.LoopbackRegistry(ids...)
	if err != nil {
		b.Fatal(err)
	}
	return registry
}

// benchDomainUDP is benchDomain over real localhost UDP sockets: every
// processor's totem attachment is a udpnet endpoint instead of the
// in-process simulated network. It lives in this file (not
// bench_test.go) for the same overlay reason as benchDomainOrdering: on
// a ref predating udpnet.LoopbackRegistry the overlay fails to build and
// bench-compare falls back to the ref's own suite.
func benchDomainUDP(b *testing.B, nodes int) *domain.Domain {
	b.Helper()
	registry := benchUDPRegistry(b, nodes)
	d, err := domain.New(domain.Config{
		Name:  "bench",
		Nodes: nodes,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: 10 * time.Second,
		TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
			return udpnet.Listen(id, registry)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// benchUDPNetMultiClient drives one endpoint's broadcast datapath with
// `clients` concurrent producer goroutines against a three-member
// registry of real localhost sockets, and measures delivered ordered
// throughput: the run only counts an iteration when every sink endpoint
// has received the datagram. Producers keep the number of broadcasts in
// flight beyond the slowest sink bounded by `window`, so kernel receive
// buffers never overflow and the figure measures the datapath, not
// loss-recovery luck.
func benchUDPNetMultiClient(b *testing.B, nodes, clients, window int, ucfg udpnet.Config, payload int) {
	b.Helper()
	registry := benchUDPRegistry(b, nodes)
	eps := make([]*udpnet.Endpoint, nodes)
	for i := range eps {
		ep, err := udpnet.ListenConfig(benchUDPNodeID(i), registry, ucfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ep.Close() })
		eps[i] = ep
	}
	src := eps[0]
	counts := make([]atomic.Int64, nodes)
	var wg sync.WaitGroup
	for i := 1; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 0
			for n < b.N {
				<-eps[i].Recv()
				n++
				counts[i].Store(int64(n))
			}
		}(i)
	}
	// Drain src's own loopback deliveries so its inbox never fills. The
	// goroutine parks on the closed endpoint's inbox at cleanup, which is
	// fine for a benchmark process.
	go func() {
		for range src.Recv() {
		}
	}()
	var sent atomic.Int64
	msg := make([]byte, payload)
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := sent.Add(1)
				if s > int64(b.N) {
					return
				}
				for {
					min := counts[1].Load()
					for i := 2; i < len(counts); i++ {
						if v := counts[i].Load(); v < min {
							min = v
						}
					}
					if s-min <= int64(window) {
						break
					}
					time.Sleep(10 * time.Microsecond)
				}
				if err := src.Broadcast(msg); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	s := src.Stats()
	b.ReportMetric(float64(s.TxDatagrams)/float64(s.TxBatches+1), "dg/flush")
}

// BenchmarkUDPNetMultiClient is the transport-level multi-client suite:
// many concurrent broadcasters sharing one UDP endpoint, the shape a
// loaded ring member's socket actually serves. On the end-to-end gateway
// rows the UDP datapath is a small slice of each operation (Amdahl
// bounds the visible ratio; see docs/PERFORMANCE.md), while here it is
// the operation. Rows keep the "batched" name BENCH_udp.json recorded
// them under.
func BenchmarkUDPNetMultiClient(b *testing.B) {
	cfg := udpnet.Config{ReadBuffer: 4 << 20}
	for _, clients := range []int{8, 16} {
		for _, size := range throughputSizes {
			// The in-flight window keeps window×frame bytes under the
			// 4 MiB kernel receive buffer for both payload sizes.
			window := 512
			if size.n > 1024 {
				window = 128
			}
			b.Run(fmt.Sprintf("c=%d/batched/%s", clients, size.name), func(b *testing.B) {
				benchUDPNetMultiClient(b, 3, clients, window, cfg, size.n)
			})
		}
	}
}

// BenchmarkGatewayMultiClientUDP is the multi-client shape with the
// totem ring over real UDP sockets (outbound gather queue, vectored
// framing, sendmmsg/recvmmsg where the platform has them).
// scripts/benchcompare.sh maps these rows onto the memnet
// BenchmarkGatewayMultiClient baseline to price the real network against
// the simulated one. Rows keep the "batched" name BENCH_udp.json
// recorded them under.
func BenchmarkGatewayMultiClientUDP(b *testing.B) {
	for _, size := range throughputSizes {
		b.Run(fmt.Sprintf("batched/c=16/%s", size.name), func(b *testing.B) {
			d := benchDomainUDP(b, 3)
			benchDeploy(b, d, replication.Active, 2)
			gw, err := d.AddGateway(2, "")
			if err != nil {
				b.Fatal(err)
			}
			conns := make([]*orb.Conn, 16)
			for i := range conns {
				c, err := orb.Dial(gw.Addr())
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = c.Close() })
				conns[i] = c
			}
			args := experiments.OctetSeqArg(make([]byte, size.n))
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			runClients(b, conns, func(int) []byte { return []byte(benchKey) }, args)
		})
	}
}

// BenchmarkGatewayMultiClient measures aggregate throughput with many
// concurrent external clients, each on its own TCP connection with one
// request in flight: the shape a loaded gateway actually serves, where
// the totem ring carries many small messages per token rotation.
func BenchmarkGatewayMultiClient(b *testing.B) {
	for _, clients := range []int{4, 16, 48} {
		for _, size := range throughputSizes {
			b.Run(fmt.Sprintf("c=%d/%s", clients, size.name), func(b *testing.B) {
				benchMultiClient(b, clients, size.n)
			})
		}
	}
}

// BenchmarkGatewayReplicationDegree sweeps the replication degree at the
// c=4 multi-client shape, per payload size. Each request draws one
// response per replica, so the receive path handles R responses for one
// useful delivery: the R=2 and R=3 rows measure how cheaply the
// redundant copies are discarded, against the R=1 row where every
// response is useful. The small rows are bounded by token rotation; the
// large rows are where per-copy decode cost is visible.
func BenchmarkGatewayReplicationDegree(b *testing.B) {
	for _, replicas := range []int{1, 2, 3} {
		for _, size := range throughputSizes {
			b.Run(fmt.Sprintf("r=%d/%s", replicas, size.name), func(b *testing.B) {
				benchMultiClientDegree(b, 4, size.n, replicas)
			})
		}
	}
}

// BenchmarkGatewayMultiGroup drives one gateway with clients spread
// across several independent server groups. Cross-group traffic shares
// the totem ring and the gateway edge but nothing else; this is the
// shape where receive-path routing between groups shows up.
func BenchmarkGatewayMultiGroup(b *testing.B) {
	const groups = 4
	d := benchDomain(b, 3)
	keys := make([]string, groups)
	for gi := 0; gi < groups; gi++ {
		keys[gi] = fmt.Sprintf("bench/multi%d", gi)
		benchDeployAt(b, d, replication.Active, 2, benchGroup+10+replication.GroupID(gi), keys[gi])
	}
	gw, err := d.AddGateway(2, "")
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]*orb.Conn, 2*groups)
	for i := range conns {
		c, err := orb.Dial(gw.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		conns[i] = c
	}
	args := experiments.OctetSeqArg(make([]byte, 64))
	b.SetBytes(64)
	b.ResetTimer()
	runClients(b, conns, func(i int) []byte { return []byte(keys[i%groups]) }, args)
}

func benchMultiClient(b *testing.B, clients, payload int) {
	benchMultiClientDegree(b, clients, payload, 2)
}

// BenchmarkGatewayAdmission is the admission-control ablation at the
// r=3/c=4 headline shape: "off" is the plain gateway (a controller of the
// zero config: no limits and no breaker), "on" is a controller with generous caps
// so every request is admitted and the benchmark prices the mechanism —
// the token bucket, the in-flight window and the breaker sample — not the
// shedding. The acceptance bar for the admission subsystem is "on" within
// 5% of "off".
func BenchmarkGatewayAdmission(b *testing.B) {
	generous := &admission.Config{
		MaxConns:          1024,
		MaxConnsPerClient: 1024,
		Rate:              1e9,
		MaxInFlight:       1024,
		AdmitWait:         time.Second,
	}
	for _, mode := range []struct {
		name string
		ac   *admission.Config
	}{{"off", nil}, {"on", generous}} {
		for _, size := range throughputSizes {
			b.Run(fmt.Sprintf("%s/%s", mode.name, size.name), func(b *testing.B) {
				benchMultiClientAdmission(b, 4, size.n, 3, mode.ac)
			})
		}
	}
}

// benchMultiClientAdmission is benchMultiClientDegree with an admission
// config on the gateway (nil = no limits and no breaker).
func benchMultiClientAdmission(b *testing.B, clients, payload, replicas int, ac *admission.Config) {
	d := benchDomain(b, replicas+1)
	benchDeploy(b, d, replication.Active, replicas)
	gw, err := d.AddGatewayAdmission(replicas, "", ac)
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]*orb.Conn, clients)
	for i := range conns {
		c, err := orb.Dial(gw.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		conns[i] = c
	}
	args := experiments.OctetSeqArg(make([]byte, payload))
	b.SetBytes(int64(payload))
	b.ResetTimer()
	runClients(b, conns, func(int) []byte { return []byte(benchKey) }, args)
	if ac != nil {
		if shed := gw.Stats().RequestsShed; shed != 0 {
			b.Fatalf("generous admission shed %d requests", shed)
		}
	}
}

// benchMultiClientDegree is the shared multi-client body: `replicas`
// server replicas on the first nodes, the gateway on a dedicated last
// node, `clients` connections each with one request in flight.
func benchMultiClientDegree(b *testing.B, clients, payload, replicas int) {
	d := benchDomain(b, replicas+1)
	benchDeploy(b, d, replication.Active, replicas)
	gw, err := d.AddGateway(replicas, "")
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]*orb.Conn, clients)
	for i := range conns {
		c, err := orb.Dial(gw.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		conns[i] = c
	}
	args := experiments.OctetSeqArg(make([]byte, payload))
	b.SetBytes(int64(payload))
	b.ResetTimer()
	runClients(b, conns, func(int) []byte { return []byte(benchKey) }, args)
}

// runClients splits b.N across the connections and drives them
// concurrently; key selects the object key for the i-th connection.
func runClients(b *testing.B, conns []*orb.Conn, key func(i int) []byte, args []byte) {
	var wg sync.WaitGroup
	clients := len(conns)
	per := b.N / clients
	extra := b.N % clients
	var firstErr error
	var errMu sync.Mutex
	for i, c := range conns {
		n := per
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(c *orb.Conn, objKey []byte, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if _, err := c.Call(objKey, "echo", args, orb.InvokeOptions{}); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(c, key(i), n)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
}

// benchDeployAt is benchDeploy for an arbitrary group and object key, so
// the multi-group benchmark can stand up several independent server
// groups in one domain.
func benchDeployAt(b *testing.B, d *domain.Domain, style replication.Style, replicas int, group replication.GroupID, key string) {
	b.Helper()
	err := d.Manager().CreateReplicatedObject(group, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(key),
		TypeID:          benchType,
	}, func() (replication.Application, error) {
		return &experiments.RegisterApp{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
