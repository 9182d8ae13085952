package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/interceptor"
	"eternalgw/internal/memnet"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

// faultRec is one injected fault and its repair, on the run's clock.
type faultRec struct {
	kind     string // "gateway" or "primary"
	target   string
	at       int64 // planned offset into the window
	fired    int64 // instant the fault was injected; 0 if it never was
	restored int64 // instant the repair completed; 0 if it never did
	err      error
}

// minFaultWindow is the shortest window that gets a primary crash: the
// crash must outlast the 80 ms fail timeout with room for the repair.
const minFaultWindow = 4 * time.Second

// faultPlan spaces pairs×2 faults over the window, alternating gateway
// and primary, as the 39 s reference schedule does (first fault at 3 s,
// one every 6 s, repair 2 s later, ±250 ms of seeded jitter), scaled to
// the window actually run.
func faultPlan(window time.Duration, rng *rand.Rand) (steps []faultRec, down time.Duration) {
	if window < minFaultWindow {
		// Too short for a processor crash to be detected and repaired
		// inside it (smoke tests): one gateway fault only.
		return []faultRec{{kind: "gateway", at: int64(window / 4)}}, window / 4
	}
	pairs := int(window / (8 * time.Second))
	if pairs < 1 {
		pairs = 1
	}
	if pairs > 3 {
		pairs = 3
	}
	period := time.Duration(float64(window) / (2*float64(pairs) + 0.5))
	jitter := period / 24
	for i := 0; i < 2*pairs; i++ {
		kind := "gateway"
		if i%2 == 1 {
			kind = "primary"
		}
		at := period/2 + time.Duration(i)*period + time.Duration((rng.Float64()*2-1)*float64(jitter))
		steps = append(steps, faultRec{kind: kind, at: int64(at)})
	}
	return steps, period / 3
}

// failoverLoad is one thin client's open-loop load.
type failoverLoad struct {
	id   int
	tc   *thinclient.Client
	jobs chan failoverJob
	mu   sync.Mutex
	res  phaseResult
}

type failoverJob struct {
	op  uint64
	due int64
}

// failoverWorkers bounds the concurrent calls of one thin client. At 250
// req/s it covers a 1 s outage; requests beyond it wait in the queue and
// are still timed from their due time.
const failoverWorkers = 256

// driveFailover offers 250 req/s per thin client on a Poisson schedule
// while the fault plan runs. Requests stay on schedule through each
// fault, so time without service is counted, not skipped.
func driveFailover(r *runner, e *env, window time.Duration) (*driveResult, error) {
	addrs := make([]interceptor.GatewayAddr, len(e.gws))
	for i, gw := range e.gws {
		host, port := gw.HostPort()
		addrs[i] = interceptor.GatewayAddr{Host: host, Port: port}
	}
	src := r.payloads(e.wl.payload)
	loads := make([]*failoverLoad, failoverClients)
	var workers sync.WaitGroup
	closeAll := func() {
		for _, l := range loads {
			if l != nil {
				close(l.jobs)
			}
		}
		workers.Wait()
		for _, l := range loads {
			if l != nil {
				_ = l.tc.Close()
			}
		}
	}
	for i := range loads {
		// Client i lists the gateways starting at gateway i, so the two
		// clients start on different gateways.
		order := append(append([]interceptor.GatewayAddr(nil), addrs[i%len(addrs):]...), addrs[:i%len(addrs)]...)
		ref := interceptor.StitchIOR(benchType, []byte(benchKey), order...)
		tc, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: requestTimeout, DialTimeout: 500 * time.Millisecond})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("thin client %d: %w", i, err)
		}
		l := &failoverLoad{id: i, tc: tc, jobs: make(chan failoverJob, 4096)} // a 2 s stall at 250 req/s is 500 jobs; never blocks the schedule
		l.res.calls = make([]callRec, 0, r.sampleCap(window)/8)
		loads[i] = l
		for w := 0; w < failoverWorkers; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				l.work(r, e, src)
			}()
		}
	}

	var (
		steps []faultRec
		down  time.Duration
	)
	if !r.warming {
		steps, down = faultPlan(window, r.rng("faults"))
	}
	start := r.clk.now()
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		runFaults(r, e, loads[0].tc, steps, start, down)
	}()
	for _, l := range loads {
		bg.Add(1)
		go func(l *failoverLoad) {
			defer bg.Done()
			pace := newPacer(r.clk)
			defer pace.close()
			openLoop(pace, start, start+int64(window), poissonGap(r.rng(fmt.Sprintf("client/%d", l.id)), failoverRate), func(due int64) {
				l.jobs <- failoverJob{op: e.led.next(), due: due}
			}, func() {})
		}(l)
	}
	bg.Wait()
	closeAll()

	all := &phaseResult{dur: window, from: start, to: start + int64(window)}
	res := &driveResult{phases: []*phaseResult{all}, throughput: all, faults: steps, extra: map[string]float64{}}
	for _, l := range loads {
		all.merge(&l.res)
		st := l.tc.Stats()
		res.extra["thinclient.failovers"] += float64(st.Failovers)
		res.extra["thinclient.reissues"] += float64(st.Reissues)
	}
	accountFailover(res, all, steps, loads[0].id)
	return res, nil
}

func (l *failoverLoad) work(r *runner, e *env, src *payloadSource) {
	for job := range l.jobs {
		args := make([]byte, src.argsLen())
		send := r.clk.now()
		src.fillArgs(args, job.op, send)
		rd, err := l.tc.Call(e.wl.op, args)
		recv := r.clk.now()
		ok := err == nil
		if ok {
			// set answers with the object's operation counter.
			if n := rd.ReadLongLong(); rd.Err() != nil || n <= 0 {
				ok = false
			}
		}
		if ok {
			e.led.ack(job.op)
		}
		l.mu.Lock()
		l.res.attempted++
		if ok {
			l.res.lat = append(l.res.lat, recv-job.due)
		} else {
			l.res.failed++
		}
		l.res.late = append(l.res.late, send-job.due)
		l.res.calls = append(l.res.calls, callRec{op: job.op, client: l.id, due: job.due, send: send, recv: recv, ok: ok})
		l.mu.Unlock()
	}
}

// runFaults executes the plan: each fault at its instant, its repair one
// downtime later. affected is the thin client whose gateway the gateway
// faults close.
func runFaults(r *runner, e *env, affected *thinclient.Client, steps []faultRec, start int64, down time.Duration) {
	for i := range steps {
		f := &steps[i]
		if wait := start + f.at - r.clk.now(); wait > 0 {
			r.clk.sleep(wait)
		}
		var repair func() error
		switch f.kind {
		case "gateway":
			repair, f.err = e.crashGateway(affected.Gateway(), f)
		case "primary":
			repair, f.err = e.crashPrimary(f)
		}
		if f.err != nil {
			continue
		}
		r.clk.sleep(int64(down))
		if f.err = repair(); f.err == nil {
			f.restored = r.clk.now()
		}
	}
}

// crashGateway closes the gateway listening on addr — the paper's
// gateway process failure — and returns the repair: a new gateway on the
// same processor and port, so the published profiles stay valid.
func (e *env) crashGateway(addr string, f *faultRec) (func() error, error) {
	slot := -1
	for i, gw := range e.gws {
		if gw.Addr() == addr {
			slot = i
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("no gateway listens on %q", addr)
	}
	f.target = fmt.Sprintf("gateway p%02d", e.wl.gateways[slot])
	f.fired = e.clk.now()
	_ = e.gws[slot].Close()
	return func() error {
		var err error
		// The port may linger for an instant after Close.
		for attempt := 0; attempt < 50; attempt++ {
			var gw *core.Gateway
			if gw, err = e.d.AddGatewayAdmission(e.wl.gateways[slot], addr, e.wl.admissionConfig()); err == nil {
				e.gws[slot] = gw
				return nil
			}
			var opErr *net.OpError
			if !errors.As(err, &opErr) {
				return err
			}
			time.Sleep(10 * time.Millisecond)
		}
		return err
	}, nil
}

// crashPrimary silences the processor hosting View.Members[0] — always
// processor 0, see below — and returns the repair: heal the processor,
// wait for it to rejoin the ring, place a fresh replica on it (the
// returning node discarded its stale one), then hand the primary role
// back to it by replacing the two older replicas in turn.
//
// Only processor 0 is ever crashed because, on the seed commit, only the
// processor with the lowest id re-merges reliably under load: any other
// processor that missed ordered traffic while away installs the merged
// ring but never delivers again (its aru stays behind the survivors'
// stability horizon), and its empty directory can later win a membership
// sync and wipe the group. README.md records the finding. Restoring the
// primary to processor 0 keeps every primary crash on the path that
// works, and keeps the three crashes alike.
func (e *env) crashPrimary(f *faultRec) (func() error, error) {
	node := e.d.Node(0)
	rm := e.d.Node(e.wl.gateways[0]).RM
	older := rm.Members(benchGroup)
	if len(older) == 0 || older[0] != node.ID {
		return nil, fmt.Errorf("primary is on %v, not on %s", older, node.ID)
	}
	older = older[1:]
	f.target = "primary " + string(node.ID)
	syncsBefore := node.RM.Stats().MembershipSyncs
	f.fired = e.clk.now()
	e.net.Crash(node.ID)
	return func() error {
		e.net.Restart(node.ID)
		// The returning node must have adopted the survivors' directory
		// before it joins: a join ordered ahead of the membership sync is
		// overwritten by it.
		deadline := time.Now().Add(5 * time.Second)
		for len(node.Totem.Members()) != e.d.Nodes() || node.RM.Stats().MembershipSyncs == syncsBefore {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not rejoin the ring", node.ID)
			}
			time.Sleep(time.Millisecond)
		}
		if err := e.joinReplica(e.d.Node(0)); err != nil {
			return err
		}
		for _, id := range older {
			n := e.d.Node(e.nodeIndex(id))
			view, _ := n.RM.View(benchGroup)
			if err := rm.EvictMembers(benchGroup, id); err != nil {
				return err
			}
			if err := n.RM.WaitForView(benchGroup, view.Number+1, 5*time.Second); err != nil {
				return fmt.Errorf("evicting replica on %s: %w", id, err)
			}
			if err := e.joinReplica(n); err != nil {
				return err
			}
		}
		if e.wl.ordering == totem.OrderingLeader {
			// Until a sequencer is agreed again requests run in ring mode;
			// the repair is complete when the fast path is back. Under
			// continuous load promotion may wait for a quiet instant, so
			// this is best effort.
			_ = e.waitFastpath(2 * time.Second)
		}
		return nil
	}, nil
}

// joinReplica places a fresh replica incarnation on n and waits until it
// has caught up.
func (e *env) joinReplica(n *domain.Node) error {
	if err := n.RM.JoinGroup(benchGroup, e.inc.new(string(n.ID))); err != nil {
		return fmt.Errorf("replica on %s: %w", n.ID, err)
	}
	if err := n.RM.WaitSynced(benchGroup, 5*time.Second); err != nil {
		return fmt.Errorf("replica on %s: %w", n.ID, err)
	}
	return nil
}

func (e *env) nodeIndex(id memnet.NodeID) int {
	for i := 0; i < e.d.Nodes(); i++ {
		if e.d.Node(i).ID == id {
			return i
		}
	}
	return -1
}

// accountFailover derives the outage after each fault from the call
// records.
func accountFailover(res *driveResult, all *phaseResult, faults []faultRec, affected int) {
	calls := append([]callRec(nil), all.calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].due < calls[j].due })
	var gwOut, prOut []float64
	for _, f := range faults {
		if f.fired == 0 {
			continue
		}
		// The first request due after the fault (on the affected client
		// for a gateway fault, on any client for a primary fault): its
		// completion is when service was back.
		i := sort.Search(len(calls), func(i int) bool { return calls[i].due > f.fired })
		for ; i < len(calls); i++ {
			if f.kind == "gateway" && calls[i].client != affected {
				continue
			}
			break
		}
		if i == len(calls) || !calls[i].ok {
			continue
		}
		ms := float64(calls[i].recv-f.fired) / 1e6
		if f.kind == "gateway" {
			gwOut = append(gwOut, ms)
		} else {
			prOut = append(prOut, ms)
		}
	}
	res.extra["outage_gateway_ms"] = median(gwOut)
	res.extra["outage_primary_ms"] = median(prOut)

	res.primary = all
}
