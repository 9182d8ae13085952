package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

const (
	benchGroup replication.GroupID = 100
	benchKey                       = "bench/register"
	benchType                      = "IDL:eternalgw/Register:1.0"
	// requestTimeout is how long a client waits for one reply; a request
	// that takes longer is a failure.
	requestTimeout = 2 * time.Second
	// steadyFailTimeout is the totem fail timeout of the workloads that
	// inject no faults. Nothing fails in them, so the timeout is on no
	// measured path: its one effect is to decide how long a stall of the
	// machine may last before the ring takes it for a failure and
	// reconfigures. With the trajectory's 80 ms the shared sandbox spoiled
	// one window in five that way (and the driver's check of this benchmark
	// once all attempts of a run); a second is beyond any stall seen, and
	// still half the time a client waits for a reply.
	steadyFailTimeout = time.Second
)

// totemTimeouts are the protocol timeouts of the recorded trajectory
// (bench_test.go), which every domain the benchmark builds uses — but for
// the fail timeout of the steady workloads, see steadyFailTimeout.
// failover_passive keeps the trajectory's 80 ms: there failure detection
// is what outage_primary_ms measures.
func totemTimeouts(wl *workload) totem.Config {
	cfg := totem.Config{
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
		Ordering:        wl.ordering,
	}
	if wl.steady {
		cfg.FailTimeout = steadyFailTimeout
	}
	return cfg
}

// timedTransport is the benchmark's probe on the other seam the program
// exposes, domain.Config.TransportFactory: it times and counts every
// Broadcast a totem node makes. Only traced runs install it.
type timedTransport struct {
	totem.Transport
	calls, ns, bytes atomic.Uint64
}

func (t *timedTransport) Broadcast(p []byte) error {
	t0 := time.Now()
	err := t.Transport.Broadcast(p)
	t.ns.Add(uint64(time.Since(t0)))
	t.calls.Add(1)
	t.bytes.Add(uint64(len(p)))
	return err
}

// setupTimes are the parts of standing a domain up, in seconds.
type setupTimes struct {
	domainNew, deploy, addGateway, promote, total float64
}

// env is one running domain with everything the benchmark attached to
// it. The benchmark owns the network (rather than letting the domain
// attach its default one) so that the same handle serves fault
// injection, transport statistics and the traced wrapper.
type env struct {
	wl     *workload
	traced bool
	d      *domain.Domain
	net    *memnet.Network    // memnet workloads
	udp    []*udpnet.Endpoint // udp workloads
	timed  []*timedTransport  // traced runs
	gws    []*core.Gateway    // current gateway per slot of wl.gateways
	led    ledger
	inc    incarnations
	setup  setupTimes
	clk    wallClock
	// ringsAtSetup is ringsInstalled() when set-up finished.
	ringsAtSetup uint64
}

// newEnv stands a domain up for wl and returns it ready to serve: ring
// formed, object deployed, gateways listening and, in leader mode, a
// sequencer agreed.
func newEnv(wl *workload, traced bool, clk wallClock) (*env, error) {
	e := &env{wl: wl, traced: traced, clk: clk}
	e.inc.traced, e.inc.clk = traced, clk
	start := time.Now()
	ids := make([]memnet.NodeID, wl.nodes)
	for i := range ids {
		ids[i] = memnet.NodeID(fmt.Sprintf("bench/p%02d", i))
	}
	var attach func(id memnet.NodeID) (totem.Transport, error)
	if wl.udp {
		registry, err := loopbackRegistry(ids)
		if err != nil {
			return nil, err
		}
		attach = func(id memnet.NodeID) (totem.Transport, error) {
			ep, err := udpnet.Listen(id, registry)
			if err == nil {
				e.udp = append(e.udp, ep)
			}
			return ep, err
		}
	} else {
		e.net = memnet.New()
		attach = func(id memnet.NodeID) (totem.Transport, error) { return e.net.Attach(id) }
	}
	d, err := domain.New(domain.Config{
		Name:                 "bench",
		Nodes:                wl.nodes,
		Totem:                totemTimeouts(wl),
		GatewayInvokeTimeout: 10 * time.Second,
		TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
			tr, err := attach(id)
			if err != nil || !traced {
				return tr, err
			}
			tt := &timedTransport{Transport: tr}
			e.timed = append(e.timed, tt)
			return tt, nil
		},
	})
	if err != nil {
		e.closeTransports()
		return nil, fmt.Errorf("domain: %w", err)
	}
	e.d = d
	t1 := time.Now()
	e.setup.domainNew = t1.Sub(start).Seconds()

	err = d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           wl.style,
		InitialReplicas: wl.replicas,
		MinReplicas:     wl.replicas,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) {
		return e.inc.new("initial"), nil
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	t2 := time.Now()
	e.setup.deploy = t2.Sub(t1).Seconds()

	for _, proc := range wl.gateways {
		gw, err := d.AddGatewayAdmission(proc, "", wl.admissionConfig())
		if err != nil {
			e.close()
			return nil, fmt.Errorf("gateway on p%02d: %w", proc, err)
		}
		e.gws = append(e.gws, gw)
	}
	t3 := time.Now()
	e.setup.addGateway = t3.Sub(t2).Seconds()

	if wl.ordering == totem.OrderingLeader {
		if err := e.waitFastpath(10 * time.Second); err != nil {
			e.close()
			return nil, err
		}
	}
	t4 := time.Now()
	e.setup.promote = t4.Sub(t3).Seconds()
	e.setup.total = t4.Sub(start).Seconds()
	e.ringsAtSetup = e.ringsInstalled()
	return e, nil
}

// ringsInstalled counts the rings the first gateway's processor has
// installed. That processor is never crashed, so the count is of the
// domain's ring, not of the singleton rings an isolated processor keeps
// installing.
func (e *env) ringsInstalled() uint64 {
	return e.d.Node(e.wl.gateways[0]).Totem.Stats().Reconfigs
}

// settled reports that the ring has not reconfigured since set-up.
func (e *env) settled() bool { return e.ringsInstalled() == e.ringsAtSetup }

// loopbackRegistry picks a free loopback UDP port for every id, as
// ftdomaind -udp does: bind port 0, note the address, release it.
func loopbackRegistry(ids []memnet.NodeID) (udpnet.Registry, error) {
	registry := make(udpnet.Registry, len(ids))
	// Every port stays bound until all are picked: released one by one, the
	// kernel may hand the same port out twice.
	var probes []*udpnet.Endpoint
	defer func() {
		for _, p := range probes {
			_ = p.Close()
		}
	}()
	for _, id := range ids {
		probe, err := udpnet.Listen(id, udpnet.Registry{id: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		probes = append(probes, probe)
		registry[id] = probe.Addr()
	}
	return registry, nil
}

// admissionConfig is the gateway admission policy of the workload: nil
// (admission off) or a private copy of its template.
func (wl *workload) admissionConfig() *admission.Config {
	if wl.admission == nil {
		return nil
	}
	cfg := *wl.admission
	return &cfg
}

// waitFastpath blocks until every processor that is up reports the same
// sequencer. Promotion needs a quiescent ring, so load must not start
// before it: early requests would be measured in ring mode.
func (e *env) waitFastpath(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var leader memnet.NodeID
		agreed := true
		for i := 0; i < e.d.Nodes(); i++ {
			n := e.d.Node(i)
			if e.net != nil && e.net.Crashed(n.ID) {
				continue
			}
			l, _, ok := n.Totem.Fastpath()
			if !ok || (leader != "" && l != leader) {
				agreed = false
				break
			}
			leader = l
		}
		if agreed && leader != "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader fast path not promoted within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// sequencer names the processor ordering messages, or "" in ring mode.
func (e *env) sequencer() string {
	l, _, _ := e.d.Node(0).Totem.Fastpath()
	return string(l)
}

func (e *env) closeTransports() {
	for _, ep := range e.udp {
		_ = ep.Close()
	}
}

// close stops the domain and everything the benchmark attached to it.
func (e *env) close() {
	if e.d != nil {
		e.d.Close()
	}
	e.closeTransports()
}
