package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/giop"
	"eternalgw/internal/interceptor"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

// The probe ladder drives each layer's public API alone, with the
// workload's payload size, for a fixed time per probe. A probe is the
// layer's cost with nothing else contending; the traced window gives the
// same layer's cost in place.

// loopCost is what a tight single-goroutine probe loop costs per
// iteration.
type loopCost struct {
	ns, allocs, kb float64
}

// sink counts what the probe loops decoded, so that the compiler cannot
// drop the calls whose cost is being measured.
var sink int

// measureLoop runs fn repeatedly for about d and returns the mean cost
// of one call. The clock is read once per batch so that it is not the
// thing measured.
func measureLoop(d time.Duration, fn func()) loopCost {
	const batch = 64
	fn() // first call pays one-off initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return loopCost{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		kb:     float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n),
	}
}

// timeLoop runs fn repeatedly for about d, timing each call, and also
// returns allocations per call.
func timeLoop(d time.Duration, fn func() error) (timing, float64, error) {
	if err := fn(); err != nil {
		return timing{}, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := make([]int64, 0, 1<<16)
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return timing{}, 0, err
		}
		samples = append(samples, int64(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(samples))
	return summarize(samples), allocs, nil
}

// probeArgs is one CDR-encoded request argument of the workload's size.
func (r *runner) probeArgs() []byte {
	src := r.payloads(r.wl.payload)
	args := make([]byte, src.argsLen())
	src.fillArgs(args, 0, 0)
	return args
}

// probeLadder runs the probes that need no domain.
func (r *runner) probeLadder(ms *metricSet, d time.Duration) error {
	payload := r.probeArgs()[4:]
	args := r.probeArgs()

	c := measureLoop(d, func() {
		w := cdr.NewWriter(cdr.BigEndian)
		w.WriteOctetSeq(payload)
		sink += len(cdr.NewReader(w.Bytes(), cdr.BigEndian).ReadOctetSeq())
	})
	ms.set("cdr.octets_rt_ns", c.ns)
	ms.set("cdr.octets_rt_allocs", c.allocs)

	var buf bytes.Buffer
	var probeErr error
	req := giop.Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte(benchKey), Operation: r.wl.op, Args: args}
	c = measureLoop(d, func() {
		buf.Reset()
		msg, err := giop.EncodeRequestV(cdr.BigEndian, 0, req)
		if err == nil {
			err = giop.WriteMessage(&buf, msg)
		}
		if err == nil {
			msg, err = giop.ReadMessage(&buf)
		}
		if err == nil {
			var got giop.Request
			got, err = giop.DecodeRequest(msg)
			sink += len(got.Args)
		}
		if err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return fmt.Errorf("giop request probe: %w", probeErr)
	}
	ms.set("giop.request_rt_ns", c.ns)
	ms.set("giop.request_rt_allocs", c.allocs)
	ms.set("giop.request_rt_kb", c.kb)

	// The reply body is what the workload's operation returns: the echoed
	// payload, or the 8-byte counter of set.
	result := args
	if r.wl.op != "echo" {
		result = make([]byte, 8)
	}
	rep := giop.Reply{RequestID: 7, Status: giop.ReplyNoException, Result: result}
	c = measureLoop(d, func() {
		buf.Reset()
		msg, err := giop.EncodeReplyV(cdr.BigEndian, 0, rep)
		if err == nil {
			err = giop.WriteMessage(&buf, msg)
		}
		if err == nil {
			msg, err = giop.ReadMessage(&buf)
		}
		if err == nil {
			var got giop.Reply
			got, err = giop.DecodeReply(msg)
			sink += len(got.Result)
		}
		if err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return fmt.Errorf("giop reply probe: %w", probeErr)
	}
	ms.set("giop.reply_rt_ns", c.ns)
	ms.set("giop.reply_rt_allocs", c.allocs)
	ms.set("giop.reply_rt_kb", c.kb)

	wire, err := giop.EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		return err
	}
	inv := replication.Message{
		Header:  replication.Header{Kind: replication.KindInvocation, ClientID: 42, SrcGroup: domain.DefaultGatewayGroup, DstGroup: benchGroup, Op: replication.OperationID{ChildSeq: 7}},
		Payload: giop.Marshal(wire),
	}
	c = measureLoop(d, func() {
		enc := replication.Encode(inv)
		if _, err := replication.DecodeHeader(enc); err != nil {
			probeErr = err
		}
		m, err := replication.Decode(enc)
		if err != nil {
			probeErr = err
		}
		sink += len(m.Payload)
	})
	if probeErr != nil {
		return fmt.Errorf("replication wire probe: %w", probeErr)
	}
	ms.set("replication.wire_rt_ns", c.ns)
	ms.set("replication.wire_rt_allocs", c.allocs)
	ms.set("replication.wire_rt_kb", c.kb)

	// logrec as a replica uses it: append each invocation's wire form,
	// cut a checkpoint every 32 (the default CheckpointInterval), which
	// truncates what it covers.
	log := logrec.NewLog()
	entry := replication.Encode(inv)
	seq := uint64(0)
	c = measureLoop(d, func() {
		seq++
		log.AppendOwned(uint32(benchGroup), logrec.Entry{Seq: seq, Data: entry})
		if seq%32 == 0 {
			log.Checkpoint(uint32(benchGroup), logrec.Checkpoint{Seq: seq, OpCount: seq})
		}
	})
	ms.set("logrec.append_ns", c.ns)
	ms.set("logrec.append_allocs", c.allocs)

	// admission with the ladder's policy whatever the workload, so the
	// figure is comparable across workloads: one admit and its release.
	adm := admission.New(*workloadByName("udp_ring_ladder").admission)
	c = measureLoop(d, func() {
		release, v := adm.AdmitRequest(42)
		if v != admission.Admit {
			probeErr = fmt.Errorf("admission probe: verdict %s", v)
		}
		release()
	})
	if probeErr != nil {
		return probeErr
	}
	ms.set("admission.admit_ns", c.ns)

	if err := r.probeDirectORB(ms, d); err != nil {
		return err
	}
	if err := r.probeTransport(ms, d); err != nil {
		return err
	}
	return r.probeTotem(ms, d)
}

// probeDirectORB is the unreplicated single-node baseline: orb.Conn.Call
// to a plain orb.Server hosting the same servant.
func (r *runner) probeDirectORB(ms *metricSet, d time.Duration) error {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	srv.Register([]byte(benchKey), &servant{})
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	args := r.probeArgs()
	t, allocs, err := timeLoop(d, func() error {
		_, err := conn.Call([]byte(benchKey), r.wl.op, args, orb.InvokeOptions{Timeout: requestTimeout})
		return err
	})
	if err != nil {
		return fmt.Errorf("direct orb probe: %w", err)
	}
	ms.setTiming("orb.direct_p50_us", "", t, 1e3)
	ms.set("orb.direct_allocs", allocs)
	return nil
}

// probeEndpoints attaches n transports of the workload's kind, named as
// a domain names its processors, and returns them with a closer.
func (r *runner) probeEndpoints(n int) ([]totem.Transport, []memnet.NodeID, func(), error) {
	ids := make([]memnet.NodeID, n)
	for i := range ids {
		ids[i] = memnet.NodeID(fmt.Sprintf("probe/p%02d", i))
	}
	eps := make([]totem.Transport, 0, n)
	if !r.wl.udp {
		net := memnet.New()
		for _, id := range ids {
			ep, err := net.Attach(id)
			if err != nil {
				return nil, nil, nil, err
			}
			eps = append(eps, ep)
		}
		return eps, ids, func() {}, nil
	}
	registry, err := loopbackRegistry(ids)
	if err != nil {
		return nil, nil, nil, err
	}
	var udps []*udpnet.Endpoint
	closeAll := func() {
		for _, ep := range udps {
			_ = ep.Close()
		}
	}
	for _, id := range ids {
		ep, err := udpnet.Listen(id, registry)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		udps = append(udps, ep)
		eps = append(eps, ep)
	}
	return eps, ids, closeAll, nil
}

// recvWithin receives from ch, waiting at most d. The caller owns t, a
// stopped and drained timer that is reused across calls: a probe loop
// that made a timer per receive would leave hundreds of thousands of
// them pending, and their expiry would disturb the next probe.
func recvWithin[T any](ch <-chan T, t *time.Timer, d time.Duration) (v T, ok bool) {
	select {
	case v = <-ch:
		return v, true
	default:
	}
	t.Reset(d)
	select {
	case v = <-ch:
		if !t.Stop() {
			<-t.C
		}
		return v, true
	case <-t.C:
		return v, false
	}
}

// idleTimer returns a stopped, drained timer for recvWithin.
func idleTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// probeTransport times one Broadcast until every endpoint, the sender
// included, has received it.
func (r *runner) probeTransport(ms *metricSet, d time.Duration) error {
	eps, _, closeAll, err := r.probeEndpoints(r.wl.nodes)
	if err != nil {
		return err
	}
	defer closeAll()
	payload := r.probeArgs()
	timer := idleTimer()
	t, _, err := timeLoop(d, func() error {
		if err := eps[0].Broadcast(payload); err != nil {
			return err
		}
		for _, ep := range eps {
			if _, ok := recvWithin(ep.Recv(), timer, requestTimeout); !ok {
				return fmt.Errorf("datagram not received at %s", ep.ID())
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	name := "memnet.bcast_p50_us"
	if r.wl.udp {
		name = "udpnet.bcast_p50_us"
	}
	ms.setTiming(name, "", t, 1e3)
	return nil
}

// probeTotem runs a bare ring of the workload's size, transport and
// ordering mode and times Multicast from a member that is not the
// sequencer until that member's own delivery; then the same with a few
// multicasts outstanding, for throughput.
func (r *runner) probeTotem(ms *metricSet, d time.Duration) error {
	eps, ids, closeAll, err := r.probeEndpoints(r.wl.nodes)
	if err != nil {
		return err
	}
	defer closeAll()
	var (
		nodes      []*totem.Node
		drains     sync.WaitGroup
		stopDrains = make(chan struct{})
	)
	defer func() {
		close(stopDrains)
		drains.Wait()
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for i, ep := range eps {
		cfg := totemTimeouts(r.wl)
		cfg.ID, cfg.Endpoint, cfg.Members = ids[i], ep, ids
		n, err := totem.Start(cfg)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	// Every member's event stream must be drained or the ring stalls; the
	// last member is the prober and reads its own.
	for _, n := range nodes[:len(nodes)-1] {
		drains.Add(1)
		go func(n *totem.Node) {
			defer drains.Done()
			for {
				select {
				case <-n.Events():
				case <-stopDrains:
					return
				}
			}
		}(n)
	}
	prober := nodes[len(nodes)-1]
	timer := idleTimer()
	awaitOwn := func() error {
		for {
			ev, ok := recvWithin(prober.Events(), timer, requestTimeout)
			if !ok {
				return fmt.Errorf("own multicast not delivered within %v", requestTimeout)
			}
			if ev.Type == totem.EventDeliver && ev.Delivery.Sender == prober.ID() {
				return nil
			}
		}
	}
	// Load must not start before the ring holds every member and, in
	// leader mode, every member has adopted the same sequencer: a member
	// that joins late demotes the ring, and a ring under constant load
	// finds no quiet instant to promote again.
	ready := func() bool {
		for _, n := range nodes {
			if len(n.Members()) != len(nodes) {
				return false
			}
			if r.wl.ordering == totem.OrderingLeader {
				if l, _, ok := n.Fastpath(); !ok || l == prober.ID() {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !ready(); {
		if time.Now().After(deadline) {
			return fmt.Errorf("totem probe: ring of %d not ready (in leader mode: no sequencer other than the probing member)", len(nodes))
		}
		// Reading events keeps the ring moving while waiting.
		recvWithin(prober.Events(), timer, time.Millisecond)
	}
	before := make([]totem.Stats, len(nodes))
	for i, n := range nodes {
		before[i] = n.Stats()
	}
	payload := r.probeArgs()
	t, _, err := timeLoop(d, func() error {
		if err := prober.Multicast(payload); err != nil {
			return err
		}
		return awaitOwn()
	})
	if err != nil {
		return fmt.Errorf("totem probe: %w", err)
	}
	ms.setTiming("totem.deliver_p50_us", "", t, 1e3)

	// Throughput with a few multicasts outstanding. The window is small on
	// purpose: a bare in-memory ring flooded from one member saturates both
	// cores, and the figure would be about the scheduler, not ordering.
	const window = 8
	for i := 0; i < window; i++ {
		if err := prober.Multicast(payload); err != nil {
			return err
		}
	}
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		if err := awaitOwn(); err != nil {
			return fmt.Errorf("totem throughput probe: %w", err)
		}
		n++
		if err := prober.Multicast(payload); err != nil {
			return err
		}
	}
	ms.set("totem.mcast_ops_per_s", float64(n)/time.Since(start).Seconds())
	for i, nd := range nodes {
		if st := nd.Stats(); st.Reconfigs != before[i].Reconfigs || st.Demotions != before[i].Demotions {
			ms.notes["totem.mcast_ops_per_s"] = "the probe ring reconfigured under the probe: figure mixes modes"
		}
	}
	return nil
}

// probeInvoke times an in-domain invocation from the gateway's processor
// straight through its replication mechanisms: no TCP, no gateway.
func (r *runner) probeInvoke(e *env, d time.Duration) (timing, error) {
	rm := e.d.Node(e.wl.gateways[0]).RM
	src := r.payloads(e.wl.payload)
	args := make([]byte, src.argsLen())
	const probeClient = 0x70726f6265 // "probe": no gateway assigns this id
	seq := uint32(0)
	t, _, err := timeLoop(d, func() error {
		seq++
		op := e.led.next()
		src.fillArgs(args, op, r.clk.now())
		_, err := rm.Invoke(domain.DefaultGatewayGroup, probeClient, benchGroup,
			replication.OperationID{ChildSeq: seq},
			giop.Request{RequestID: seq, ResponseExpected: true, ObjectKey: []byte(benchKey), Operation: e.wl.op, Args: args},
			requestTimeout)
		if err == nil {
			e.led.ack(op)
		}
		return err
	})
	if err != nil {
		return timing{}, fmt.Errorf("replication invoke probe: %w", err)
	}
	return t, nil
}

// probeThinClient returns what the thin client layer adds to a call:
// thinclient.Call minus orb.Conn.Call, p50 each, on the same gateway.
// The two alternate call by call, so that drift in the machine's speed
// lands on both.
func (r *runner) probeThinClient(e *env, d time.Duration) (float64, error) {
	gw := e.gws[0]
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		return 0, err
	}
	defer func() { _ = conn.Close() }()
	host, port := gw.HostPort()
	ref := interceptor.StitchIOR(benchType, []byte(benchKey), interceptor.GatewayAddr{Host: host, Port: port})
	tc, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: requestTimeout})
	if err != nil {
		return 0, err
	}
	defer func() { _ = tc.Close() }()

	src := r.payloads(e.wl.payload)
	args := make([]byte, src.argsLen())
	timed := func(invoke func() error) (int64, error) {
		op := e.led.next()
		t0 := r.clk.now()
		src.fillArgs(args, op, t0)
		if err := invoke(); err != nil {
			return 0, err
		}
		e.led.ack(op)
		return r.clk.now() - t0, nil
	}
	var plain, thin []int64
	for end := r.clk.now() + int64(d); r.clk.now() < end; {
		p, err := timed(func() error {
			_, err := conn.Call([]byte(benchKey), e.wl.op, args, orb.InvokeOptions{Timeout: requestTimeout})
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("thin client probe (plain call): %w", err)
		}
		t, err := timed(func() error {
			_, err := tc.Call(e.wl.op, args)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("thin client probe: %w", err)
		}
		plain, thin = append(plain, p), append(thin, t)
	}
	return (summarize(thin).P50 - summarize(plain).P50) / 1e3, nil
}
