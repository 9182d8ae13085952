package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/orb"
)

// callRec is one request as its client saw it, on the run's clock.
type callRec struct {
	op         uint64
	client     int
	due        int64 // when it was scheduled (open loop); equals send in a closed loop
	send, recv int64
	ok         bool
}

// phaseResult is what one load phase produced.
type phaseResult struct {
	dur                    time.Duration
	from, to               int64 // when load started and stopped, on the run's clock
	attempted              uint64
	failed                 uint64  // timed out, excepted, shed or failed verification
	mismatch               uint64  // replies whose bytes differ from the request
	lat                    []int64 // ns, verified requests only; from due time in an open loop
	late                   []int64 // ns the generator sent after the due time (open loop)
	inflight               int     // peak requests outstanding
	backlogMid, backlogEnd int
	// lateGen: the open-loop generator fell behind its schedule (see
	// lateLimitUs); the phase's latencies are of another load than the one
	// it names and are not reported.
	lateGen bool
	calls   []callRec // kept for tracing and outage accounting
}

func (p *phaseResult) verified() uint64 { return p.attempted - p.failed }

// merge folds another connection's share of the same phase into p.
func (p *phaseResult) merge(o *phaseResult) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.mismatch += o.mismatch
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.inflight += o.inflight
	p.backlogMid += o.backlogMid
	p.backlogEnd += o.backlogEnd
	p.calls = append(p.calls, o.calls...)
}

// driveResult is a workload's measured window.
type driveResult struct {
	phases []*phaseResult
	// primary is the phase lat_p50_us and lat_p99_us are read from.
	primary *phaseResult
	// throughput is the phase ops_per_s is read from.
	throughput *phaseResult
	faults     []faultRec
	extra      map[string]float64 // workload-specific end-to-end metrics
	withheld   []string           // phases whose latencies are not reported, and why
}

func (d *driveResult) totals() (attempted, failed, mismatch uint64) {
	for _, p := range d.phases {
		attempted += p.attempted
		failed += p.failed
		mismatch += p.mismatch
	}
	return
}

// clock is the generator's view of time, injectable so the due-time
// accounting can be tested under a synthetic stall.
type clock interface {
	now() int64 // ns on the run's clock
	sleep(ns int64)
}

type wallClock struct{ base time.Time }

func (c wallClock) now() int64     { return int64(time.Since(c.base)) }
func (c wallClock) sleep(ns int64) { time.Sleep(time.Duration(ns)) }

// openLoop sends on a schedule regardless of completions: gap() draws
// the next inter-arrival time, send(due) issues one request and idle()
// runs before each wait (flush point). A request is always handed its
// due time, not the time it was actually sent, so that when the
// generator or the system stalls, the requests that were due during the
// stall carry the wait in their latency instead of hiding it.
func openLoop(clk clock, start, end int64, gap func() int64, send func(due int64), idle func()) {
	due := start + gap()
	for due < end {
		if now := clk.now(); due > now {
			idle()
			clk.sleep(due - now)
			continue
		}
		send(due)
		due += gap()
	}
	idle()
}

// poissonGap returns exponentially distributed inter-arrival times for
// the given rate, drawn from rng.
func poissonGap(rng *rand.Rand, perSecond float64) func() int64 {
	return func() int64 { return int64(rng.ExpFloat64() / perSecond * 1e9) }
}

// --- closed loop, one in flight (small_rtt, large_rtt) ----------------------

// driveClosedLoop is the paper's figure-5 loop as the recorded
// GatewayRoundTrip rows drive it: one orb.Conn, one request in flight,
// the argument buffer reused.
func driveClosedLoop(r *runner, e *env, window time.Duration) (*driveResult, error) {
	conn, err := orb.Dial(e.gws[0].Addr())
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	src := r.payloads(e.wl.payload)
	args := make([]byte, src.argsLen())
	p := &phaseResult{dur: window, inflight: 1}
	p.lat = make([]int64, 0, r.sampleCap(window))
	if e.traced {
		p.calls = make([]callRec, 0, r.sampleCap(window))
	}
	key := []byte(benchKey)
	opts := orb.InvokeOptions{Timeout: requestTimeout}
	p.from = r.clk.now()
	p.to = p.from + int64(window)
	for {
		t0 := r.clk.now()
		if t0 >= p.to || r.giveUp.Load() {
			break
		}
		op := e.led.next()
		src.fillArgs(args, op, t0)
		rd, err := conn.Call(key, e.wl.op, args, opts)
		t1 := r.clk.now()
		p.attempted++
		ok := err == nil
		if ok && !src.checkEcho(rd.ReadOctetSeq(), op) {
			ok = false
			p.mismatch++
		}
		if ok {
			e.led.ack(op)
			p.lat = append(p.lat, t1-t0)
		} else {
			p.failed++
		}
		if e.traced {
			p.calls = append(p.calls, callRec{op: op, due: t0, send: t0, recv: t1, ok: ok})
		}
	}
	return &driveResult{phases: []*phaseResult{p}, primary: p, throughput: p}, nil
}

// --- pipelined raw GIOP client (udp_ring_ladder) ----------------------------

// slot is one outstanding request of a pipeConn.
type slot struct {
	live bool
	req  uint32
	op   uint64
	due  int64
	send int64
}

const slotRing = 1 << 16 // far above any window or backlog the ladder reaches

// pipeConn is a pipelining IIOP client on one TCP connection: a sender
// that writes requests without waiting and a reader that matches replies
// by request id. It speaks GIOP through the giop package directly —
// orb.Conn would need a goroutine per outstanding request, and the
// generator shares two cores with the domain.
type pipeConn struct {
	r      *runner
	e      *env
	id     int
	nc     net.Conn
	bw     *bufio.Writer
	src    *payloadSource
	args   []byte
	tokens chan struct{} // closed-loop window; nil in an open loop

	mu          sync.Mutex // guards everything below
	slots       []slot
	nextReq     uint32
	outstanding int
	res         *phaseResult
	readerDone  chan struct{}
}

// boundedWriter gives every write to the connection requestTimeout to
// complete. A gateway whose in-flight window is full behind a domain that
// has stopped answering stops reading its sockets; the generator must
// then fail its requests and keep its schedule, not block in write. After
// the first error the bufio.Writer above it fails every later write at
// once.
type boundedWriter struct{ nc net.Conn }

func (w boundedWriter) Write(b []byte) (int, error) {
	if err := w.nc.SetWriteDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	return w.nc.Write(b)
}

func dialPipe(r *runner, e *env, id int, res *phaseResult, window int) (*pipeConn, error) {
	nc, err := orb.DialRaw(e.gws[0].Addr())
	if err != nil {
		return nil, err
	}
	p := &pipeConn{
		r: r, e: e, id: id, nc: nc,
		bw:         bufio.NewWriterSize(boundedWriter{nc}, 64<<10),
		src:        r.payloads(e.wl.payload),
		slots:      make([]slot, slotRing),
		res:        res,
		readerDone: make(chan struct{}),
	}
	p.args = make([]byte, p.src.argsLen())
	if window > 0 {
		p.tokens = make(chan struct{}, window)
		for i := 0; i < window; i++ {
			p.tokens <- struct{}{}
		}
	}
	go p.readLoop()
	return p, nil
}

// send registers and writes one request due at due (buffered; flush
// pushes it to the socket).
func (p *pipeConn) send(due int64) {
	now := p.r.clk.now()
	op := p.e.led.next()
	p.mu.Lock()
	p.nextReq++
	req := p.nextReq
	p.slots[req%slotRing] = slot{live: true, req: req, op: op, due: due, send: now}
	p.outstanding++
	if p.outstanding > p.res.inflight {
		p.res.inflight = p.outstanding
	}
	p.res.attempted++
	if p.tokens == nil {
		p.res.late = append(p.res.late, now-due)
	}
	p.mu.Unlock()

	p.src.fillArgs(p.args, op, now)
	msg, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
		RequestID:        req,
		ResponseExpected: true,
		ObjectKey:        []byte(benchKey),
		Operation:        p.e.wl.op,
		Args:             p.args,
	})
	if err == nil {
		err = giop.WriteMessage(p.bw, msg)
	}
	if err != nil {
		p.fail(req)
	}
}

func (p *pipeConn) flush() {
	if p.bw.Buffered() > 0 {
		_ = p.bw.Flush() // a broken socket surfaces as timeouts at drain
	}
}

// fail resolves a request that could not be sent.
func (p *pipeConn) fail(req uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := &p.slots[req%slotRing]; s.live && s.req == req {
		s.live = false
		p.outstanding--
		p.res.failed++
	}
}

func (p *pipeConn) readLoop() {
	defer close(p.readerDone)
	ra := giop.NewReassembler(p.nc, 0)
	for {
		msg, err := ra.Next()
		if err != nil {
			return // closed by finish, or broken: what is outstanding times out
		}
		if msg.Header.Type != giop.MsgReply {
			continue
		}
		rep, err := giop.DecodeReply(msg)
		if err != nil {
			continue
		}
		p.resolve(rep, p.r.clk.now())
	}
}

func (p *pipeConn) resolve(rep giop.Reply, now int64) {
	p.mu.Lock()
	s := &p.slots[rep.RequestID%slotRing]
	if !s.live || s.req != rep.RequestID {
		p.mu.Unlock()
		return
	}
	ok := rep.Status == giop.ReplyNoException
	if ok && !p.src.checkEcho(cdr.NewReader(rep.Result, rep.ResultOrder).ReadOctetSeq(), s.op) {
		ok = false
		p.res.mismatch++
	}
	t0 := s.send
	if p.tokens == nil {
		t0 = s.due
	}
	if ok {
		p.res.lat = append(p.res.lat, now-t0)
	} else {
		p.res.failed++
	}
	if p.e.traced {
		p.res.calls = append(p.res.calls, callRec{op: s.op, client: p.id, due: s.due, send: s.send, recv: now, ok: ok})
	}
	op := s.op
	s.live = false
	p.outstanding--
	p.mu.Unlock()
	if ok {
		p.e.led.ack(op)
	}
	if p.tokens != nil {
		p.tokens <- struct{}{}
	}
}

func (p *pipeConn) backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// finish waits for outstanding replies (a request unanswered after
// requestTimeout is a failure), closes the connection and stops the
// reader.
func (p *pipeConn) finish() {
	deadline := time.Now().Add(requestTimeout)
	for p.backlog() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = p.nc.Close()
	<-p.readerDone
	p.mu.Lock()
	p.res.failed += uint64(p.outstanding)
	p.outstanding = 0
	p.mu.Unlock()
}

// runOpen offers a Poisson schedule of rate req/s for dur.
func (p *pipeConn) runOpen(rate float64, rng *rand.Rand, dur time.Duration) {
	start := p.r.clk.now()
	end := start + int64(dur)
	mid := start + int64(dur)/2
	sampled := false
	pace := newPacer(p.r.clk)
	defer pace.close()
	openLoop(pace, start, end, poissonGap(rng, rate), func(due int64) {
		if !sampled && due >= mid {
			sampled = true
			p.res.backlogMid = p.backlog()
		}
		p.send(due)
	}, p.flush)
	p.res.backlogEnd = p.backlog()
}

// runWindow keeps the connection's window of requests outstanding for
// dur: each reply releases the token the next request needs.
func (p *pipeConn) runWindow(dur time.Duration) {
	timer := time.NewTimer(dur)
	defer timer.Stop()
	for {
		select {
		case <-p.tokens:
		default:
			p.flush()
			select {
			case <-p.tokens:
			case <-timer.C:
				return
			}
		}
		select {
		case <-timer.C:
			p.flush()
			return
		default:
		}
		p.send(p.r.clk.now())
	}
}

// ladderPhase runs one phase of the ladder on fresh connections: open
// loop at rate, or (rate 0) the closed-loop window.
func ladderPhase(r *runner, e *env, name string, rate float64, dur time.Duration) (*phaseResult, error) {
	per := make([]*phaseResult, ladderConns)
	conns := make([]*pipeConn, ladderConns)
	window := 0
	if rate == 0 {
		window = ladderWindow / ladderConns
	}
	capHint := r.sampleCap(dur)
	for i := range conns {
		per[i] = &phaseResult{lat: make([]int64, 0, capHint), late: make([]int64, 0, capHint)}
		c, err := dialPipe(r, e, i, per[i], window)
		if err != nil {
			for _, prev := range conns[:i] {
				prev.finish()
			}
			return nil, err
		}
		conns[i] = c
	}
	out := &phaseResult{dur: dur, from: r.clk.now()}
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(c *pipeConn, rng *rand.Rand) {
			defer wg.Done()
			if rate == 0 {
				c.runWindow(dur)
			} else {
				c.runOpen(rate/ladderConns, rng, dur)
			}
		}(c, r.rng(fmt.Sprintf("%s/%d", name, i)))
	}
	wg.Wait()
	out.to = r.clk.now()
	for i, c := range conns {
		c.finish()
		out.merge(per[i])
	}
	return out, nil
}

// driveLadder runs the four phases: open loop at the three frozen rates,
// then the closed-loop window.
func driveLadder(r *runner, e *env, window time.Duration) (*driveResult, error) {
	res := &driveResult{extra: map[string]float64{}}
	if r.warming {
		p, err := ladderPhase(r, e, "warm", 0, window)
		if err != nil {
			return nil, err
		}
		res.phases, res.primary, res.throughput = []*phaseResult{p}, p, p
		return res, nil
	}
	dur := window / 4
	names := []string{"r1", "r2", "r3"}
	rateOK := 0.0
	for i, rate := range ladderRates {
		if r.giveUp.Load() {
			return res, nil // the window is being discarded
		}
		p, err := ladderPhase(r, e, names[i], rate, dur)
		if err != nil {
			return nil, err
		}
		res.phases = append(res.phases, p)
		lat := steady(append([]int64(nil), p.lat...))
		late := steady(append([]int64(nil), p.late...))
		res.extra["gen.late_p99_us."+names[i]] = late.Tail / 1e3
		if late.Tail/1e3 > lateLimitUs {
			p.lateGen = true
			res.withheld = append(res.withheld, fmt.Sprintf("phase %s: generator ran %.0f us late at p%.0f (limit %.0f), its latencies are not reported", names[i], late.Tail/1e3, late.TailAt, lateLimitUs))
			continue
		}
		res.extra["lat_p50_us."+names[i]] = lat.P50 / 1e3
		if i != 1 {
			res.extra["lat_p99_us_"+names[i]] = lat.Tail / 1e3
		}
		growing := p.backlogEnd > p.backlogMid+2*ladderWindow
		if lat.Tail/1e3 <= latLimitUs && p.failed == 0 && !growing {
			rateOK = rate
		}
	}
	res.primary = res.phases[1]
	closed, err := ladderPhase(r, e, "window32", 0, window-3*dur)
	if err != nil {
		return nil, err
	}
	res.phases = append(res.phases, closed)
	res.throughput = closed
	res.extra["rate_ok_per_s"] = rateOK
	return res, nil
}
