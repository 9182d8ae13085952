package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/core"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

const (
	// setupRepeats: the domain is stood up this many times and setup_s is
	// the median, so one slow ring formation does not decide it. Ring
	// formation waits on 10 ms timers and takes 21 or 31 ms by turns; with 9
	// stand-ups the median fell on either side from run to run (ten runs
	// spread by up to 27% on small_rtt), with 25 it settles. They cost a
	// second.
	setupRepeats = 25
	// warmup runs untimed before every measured window: caches fill,
	// connections and pools reach their working size.
	warmup = 2 * time.Second
)

// runner carries one invocation's parameters and shared helpers.
type runner struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	outDir  string
	clk     wallClock
	warming bool
	// giveUp tells a steady workload's generator to end its window early:
	// the ring reconfigured, the window will be discarded.
	giveUp atomic.Bool
	stdout io.Writer
	srcs   map[int]*payloadSource
}

func newRunner(wl *workload, seed int64, seconds int, trace bool, outDir string, stdout io.Writer) *runner {
	return &runner{
		wl: wl, seed: seed, seconds: seconds, trace: trace, outDir: outDir,
		clk: wallClock{base: time.Now()}, stdout: stdout, srcs: map[int]*payloadSource{},
	}
}

// rng derives an independent generator for one named stream from the
// run's seed, so adding a stream does not shift the others' draws.
func (r *runner) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return rand.New(rand.NewSource(r.seed ^ int64(h.Sum64())))
}

func (r *runner) payloads(size int) *payloadSource {
	if s, ok := r.srcs[size]; ok {
		return s
	}
	s := newPayloadSource(r.seed, size)
	r.srcs[size] = s
	return s
}

// sampleCap sizes sample slices before a window starts so that their
// growth is not charged to the window's allocation figures.
func (r *runner) sampleCap(d time.Duration) int {
	return int(d.Seconds()*40000) + 1024
}

// layerStats is every layer's public Stats() at one instant, summed over
// the domain's processors (and over every gateway instance the run
// created, since a repaired gateway starts counting from zero).
type layerStats struct {
	totem     totem.Stats // sums, except Reconfigs and Demotions: the first gateway's processor
	delivered uint64      // payloads delivered at the first gateway's processor
	rm        replication.Stats
	gw        core.Stats
	adm       admission.Stats
	net       memnet.Stats
	udp       udpnet.Stats
	bcastN    uint64 // timedTransport totals (traced runs)
	bcastNs   uint64
	bcastB    uint64
}

func (e *env) stats() layerStats {
	var s layerStats
	for i := 0; i < e.d.Nodes(); i++ {
		n := e.d.Node(i)
		t := n.Totem.Stats()
		if i == e.wl.gateways[0] {
			// Read where the first gateway sits: that processor is never
			// crashed, so its counts are of the domain's ring and not of
			// the singleton rings an isolated processor keeps installing.
			s.delivered = t.Delivered
			s.totem.Reconfigs = t.Reconfigs
			s.totem.Demotions = t.Demotions
		}
		s.totem.Broadcast += t.Broadcast
		s.totem.Retransmitted += t.Retransmitted
		s.totem.TokenPasses += t.TokenPasses
		s.totem.PackedMsgs += t.PackedMsgs
		s.totem.PackedParts += t.PackedParts
		s.totem.Forwarded += t.Forwarded
		s.totem.LeaderBatches += t.LeaderBatches
		m := n.RM.Stats()
		s.rm.DuplicateResponses += m.DuplicateResponses
		s.rm.ResponsesDiscardedEarly += m.ResponsesDiscardedEarly
		s.rm.DuplicateInvocations += m.DuplicateInvocations
		s.rm.InvocationsExecuted += m.InvocationsExecuted
		s.rm.StateSyncs += m.StateSyncs
		s.rm.Checkpoints += m.Checkpoints
		s.rm.CatchupCheckpoints += m.CatchupCheckpoints
		s.rm.TransferEntriesReplayed += m.TransferEntriesReplayed
		s.rm.Failovers += m.Failovers
	}
	for _, gw := range e.d.Gateways() {
		g := gw.Stats()
		s.gw.RequestsForwarded += g.RequestsForwarded
		s.gw.RequestsShed += g.RequestsShed
		s.gw.AnsweredFromCache += g.AnsweredFromCache
		if a := gw.Admission(); a != nil {
			as := a.Stats()
			s.adm.Admitted += as.Admitted
			s.adm.ShedRate += as.ShedRate
			s.adm.ShedWindow += as.ShedWindow
			s.adm.ShedDraining += as.ShedDraining
		}
	}
	if e.net != nil {
		s.net = e.net.Stats()
	}
	for _, ep := range e.udp {
		u := ep.Stats()
		s.udp.TxDatagrams += u.TxDatagrams
		s.udp.TxBatches += u.TxBatches
		s.udp.RxDatagrams += u.RxDatagrams
		s.udp.RxBatches += u.RxBatches
		s.udp.TxQueueDrops += u.TxQueueDrops + u.TxErrors
		s.udp.RxInboxDrops += u.RxInboxDrops + u.RxTruncated + u.RxShortFrames
	}
	for _, t := range e.timed {
		s.bcastN += t.calls.Load()
		s.bcastNs += t.ns.Load()
		s.bcastB += t.bytes.Load()
	}
	return s
}

// audit is the exactly-once reconciliation after a window.
type audit struct {
	issued, acked uint64
	opsCounter    int64 // the object's own counter, read through a gateway
	multiExec     uint64
	unexecuted    uint64
	counterOut    uint64
}

// auditEnv reconciles the ledger, every replica incarnation's execution
// counts and the object's final operation counter. Only while the ring
// never reconfigured must every replica of a steady active group have
// executed every acknowledged operation: a processor the ring dropped
// over a stall of the machine discards its replica on return, and what
// the group executed without it is no violation.
func (r *runner) auditEnv(e *env) (audit, error) {
	var a audit
	conn, err := orb.Dial(e.gws[0].Addr())
	if err != nil {
		return a, fmt.Errorf("audit: %w", err)
	}
	defer func() { _ = conn.Close() }()
	// A domain that has just carried the window's load may take a moment
	// to answer (twice in eighty runs of large_rtt the first read took
	// more than 5 s), so the read is given three tries.
	var rd *cdr.Reader
	for try := 0; try < 3; try++ {
		if rd, err = conn.Call([]byte(benchKey), "ops", nil, orb.InvokeOptions{Timeout: 5 * time.Second}); err == nil {
			break
		}
	}
	if err != nil {
		return a, fmt.Errorf("audit: reading ops counter: %w", err)
	}
	a.opsCounter = rd.ReadLongLong()
	a.issued, a.acked = e.led.totals()
	if uint64(a.opsCounter) < a.acked || uint64(a.opsCounter) > a.issued {
		a.counterOut = 1
	}
	incs := e.inc.list()
	everyReplica := e.settled() && e.wl.steady && e.wl.style == replication.Active
	if everyReplica {
		// The counter was answered by the first replica to reach it; the
		// others may still be executing what precedes it. A replica that
		// is merely behind is not a violation, so let them catch up.
		deadline := time.Now().Add(5 * time.Second)
		for _, s := range incs {
			for s.opCount() < a.opsCounter && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	for op := uint64(1); op <= a.issued; op++ {
		acked := e.led.isAcked(op)
		total := 0
		for _, s := range incs {
			n := s.executions(op)
			total += n
			if n > 1 {
				a.multiExec++
			}
			// With active replication and no faults every replica runs
			// every acknowledged operation.
			if acked && everyReplica && n == 0 {
				a.unexecuted++
			}
		}
		if acked && total == 0 {
			a.unexecuted++
		}
	}
	return a, nil
}

func (a audit) violations(mismatch uint64) uint64 {
	return a.multiExec + a.unexecuted + a.counterOut + mismatch
}

// outcome is what one invocation reports to the driver.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the full record of one run, the input of `bench compare`.
type resultFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Invalid   []string           `json:"invalid,omitempty"`
	Disturbed []string           `json:"disturbed,omitempty"`
	Withheld  []string           `json:"withheld,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]string  `json:"notes,omitempty"`
	// The benchmark claims no gain; a change that does fills this in.
	Claim *string `json:"claim"`
}

// run executes the workload and reports. The returned error is for
// failures to run at all; a run that completed with a broken invariant
// reports it in the outcome.
//
// What decides `correct` and the exit status is the program's output
// alone: every reply verified, every operation executed exactly once. What
// the machine did to the run — a ring that reconfigured although nothing
// was made to fail, a fault step that could not be carried out — is
// measured again while there is time (quietWindow), and if the last
// attempt still has it, is reported as a disturbance beside figures that
// are then marked as such, not as a failure of the program: the driver
// reads a non-zero exit as a broken program and refuses the benchmark.
func (r *runner) run() (*outcome, *resultFile, error) {
	fmt.Fprintf(r.stdout, "# workload %s seed %d seconds %d trace %v\n", r.wl.name, r.seed, r.seconds, r.trace)
	fmt.Fprintf(r.stdout, "# limits: memnet injects zero message delay, so latency is processor and scheduler time only; UDP crosses the host loopback, not a link; the generator shares the machine's %d cores with the domain\n", runtime.NumCPU())
	var (
		ms        *metricSet
		res       *driveResult
		aud       audit
		disturbed []string
		err       error
	)
	// An attempt that cannot be completed — a port taken between picking
	// and binding it, a request of the warm-up or of a probe that timed out
	// over a stall of the machine, a counter that could not be read — is
	// made again for as long as a spoiled window is.
	for attempt := 1; ; attempt++ {
		ms = newMetricSet()
		if r.trace {
			res, aud, disturbed, err = r.runTraced(ms)
		} else {
			res, aud, disturbed, err = r.runMeasured(ms)
		}
		if err == nil {
			break
		}
		if time.Duration(r.clk.now()) >= retryFor {
			return nil, nil, err
		}
		fmt.Fprintf(r.stdout, "# attempt %d could not be completed: %v; running again\n", attempt, err)
		reclaim()
	}
	attempted, failed, mismatch := res.totals()
	violations := aud.violations(mismatch)
	for _, f := range res.faults {
		if f.fired == 0 || f.restored == 0 {
			disturbed = append(disturbed, fmt.Sprintf("fault step %s at +%v did not complete: %v", f.kind, time.Duration(f.at), f.err))
		}
	}
	var invalid []string
	if violations > 0 {
		invalid = append(invalid, fmt.Sprintf("%d exactly-once violations (multi-exec %d, unexecuted %d, counter %d outside [%d,%d], mismatched replies %d)",
			violations, aud.multiExec, aud.unexecuted, aud.opsCounter, aud.acked, aud.issued, mismatch))
	}
	if attempted == 0 {
		invalid = append(invalid, "no requests attempted")
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	} else {
		ms.set("fail_ratio", ratio(float64(failed), float64(attempted)))
		ms.set("exactly_once_violations", float64(violations))
	}
	ms.print(r.stdout, defs)
	for _, why := range invalid {
		fmt.Fprintf(r.stdout, "# INVALID: %s\n", why)
	}
	for _, why := range disturbed {
		fmt.Fprintf(r.stdout, "# DISTURBED: %s\n", why)
	}
	for _, why := range res.withheld {
		fmt.Fprintf(r.stdout, "# WITHHELD: %s\n", why)
	}

	out := &outcome{Correct: len(invalid) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		if !r.trace && !d.gated {
			continue
		}
		out.Metrics[d.name] = driverValue{Value: ms.values[d.name], Unit: d.unit}
	}
	file := &resultFile{
		Workload: r.wl.name, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		Correct: out.Correct, Invalid: invalid, Disturbed: disturbed, Withheld: res.withheld, Attempted: attempted, Failed: failed,
		Metrics: ms.values, Notes: ms.notes,
	}
	return out, file, nil
}

// reclaim hands a discarded domain's memory back and forgets the peak it
// reached, so that rss_peak_mb reads the attempt that counts. Close
// returns before the last connection handlers have let go of their
// buffers, hence the pause. Where the kernel does not offer the reset
// the peak of the largest attempt stands.
func reclaim() {
	time.Sleep(200 * time.Millisecond)
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // resets VmHWM
}

// standUp builds the domain setupRepeats times, keeping the last, and
// returns the median set-up times.
func (r *runner) standUp(traced bool, repeats int) (*env, setupTimes, error) {
	var (
		e   *env
		all []setupTimes
	)
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = newEnv(r.wl, traced, r.clk); err != nil {
			return nil, setupTimes{}, err
		}
		all = append(all, e.setup)
	}
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(all))
		for i, s := range all {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return e, setupTimes{
		domainNew:  pick(func(s setupTimes) float64 { return s.domainNew }),
		deploy:     pick(func(s setupTimes) float64 { return s.deploy }),
		addGateway: pick(func(s setupTimes) float64 { return s.addGateway }),
		promote:    pick(func(s setupTimes) float64 { return s.promote }),
		total:      pick(func(s setupTimes) float64 { return s.total }),
	}, nil
}

const (
	// cacheFill is how many operations fill the program's bounded caches:
	// every replica remembers the replies of its last 16384 operations
	// (replication.Config.DedupCapacity) and each gateway 8192. Until they
	// are full the live heap grows with every operation — on large_rtt by
	// 16 KiB × 4 per op towards 1 GB, with the collector running back to
	// back and throughput a fraction of what it settles at — and how long
	// that lasts depends on the machine's speed. A steady workload is
	// timed after it.
	cacheFill = 16384 + 2048
	// warmupMost bounds the warm-up of a run whatever the caches do.
	warmupMost = 12 * time.Second
)

// warmUp drives the workload untimed and fault-free for d, and on the
// steady workloads on until the program's caches are full.
func (r *runner) warmUp(e *env, d time.Duration) error {
	r.warming = true
	defer func() { r.warming = false }()
	for start := time.Now(); ; d = time.Second {
		res, err := r.wl.drive(r, e, d)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if _, failed, _ := res.totals(); failed > 0 {
			return fmt.Errorf("warm-up: %d requests failed", failed)
		}
		// Runs of a few seconds are smoke tests, not measurements; a
		// disturbed domain (see disturbed) will not be measured at all.
		if _, acked := e.led.totals(); !r.wl.steady || r.seconds < 10 || acked >= cacheFill || time.Since(start) >= warmupMost || e.disturbed() {
			return nil
		}
	}
}

// measured is one window with the process's and the layers' counters
// read on either side of it.
type measured struct {
	res                     *driveResult
	before, after           resources
	statsBefore, statsAfter layerStats
	goroutines              int // peak
	points                  []progress
}

// progress is how far the run had come at one instant: operations
// acknowledged and process CPU consumed.
type progress struct {
	at    int64 // run clock
	acked uint64
	cpu   time.Duration
}

// rateSlice is the interval at which progress is sampled.
const rateSlice = 500 * time.Millisecond

// steadyRates reduces the progress samples taken within [from, to] to a
// throughput and a CPU cost per operation that the machine's bad moments
// do not decide (see steady): each interval between samples gives a rate
// and a cost, and the midmean over intervals is reported. ok is false for
// a window too short for four intervals; an interval in which nothing
// completed (an outage) has no cost.
func steadyRates(points []progress, from, to int64) (opsPerS, cpuUsPerOp float64, ok bool) {
	var in []progress
	for _, p := range points {
		if p.at >= from && p.at <= to {
			in = append(in, p)
		}
	}
	if len(in) < 5 {
		return 0, 0, false
	}
	var rates, costs []float64
	for i := 1; i < len(in); i++ {
		done := float64(in[i].acked - in[i-1].acked)
		rates = append(rates, ratio(done*1e9, float64(in[i].at-in[i-1].at)))
		if done > 0 {
			costs = append(costs, float64(in[i].cpu-in[i-1].cpu)/1e3/done)
		}
	}
	return midmean(rates), midmean(costs), true
}

// measure drives one window with the counters read on either side of it.
// With abandon set the window is given up as soon as the ring is seen
// disturbed, so that a window that will be discarded costs the time up to
// the stall and not its whole length.
func (r *runner) measure(e *env, window time.Duration, abandon bool) (*measured, error) {
	m := &measured{}
	defer r.giveUp.Store(false)
	mark := func() {
		_, acked := e.led.totals()
		m.points = append(m.points, progress{at: r.clk.now(), acked: acked, cpu: cpuTime()})
	}
	mark()
	watch := startSampler(50*time.Millisecond, func() {
		if n := runtime.NumGoroutine(); n > m.goroutines {
			m.goroutines = n
		}
		if r.clk.now()-m.points[len(m.points)-1].at >= int64(rateSlice) {
			mark()
		}
		if abandon && e.disturbed() && !r.giveUp.Swap(true) {
			fmt.Fprintf(r.stdout, "# ring disturbed %.1f s into the window\n", float64(r.clk.now()-m.points[0].at)/1e9)
		}
	})
	m.statsBefore = e.stats()
	m.before = readResources()
	res, err := r.wl.drive(r, e, window)
	m.after = readResources()
	m.statsAfter = e.stats()
	watch.finish()
	mark()
	m.res = res
	return m, err
}

// disturbed reports that the ring of a steady workload, which injects no
// faults, has reconfigured since set-up. On this sandbox the cause is the
// hypervisor withholding the CPUs for longer than the fail timeout (see
// steadyFailTimeout): a processor drops out, the sequencer is demoted, and
// — the seed's merge defect, see README — a processor that returns under
// load may never deliver again, so the rest of the window measures a
// different domain.
func (e *env) disturbed() bool { return e.wl.steady && !e.settled() }

// retryFor is how long into a run a spoiled window is still measured
// again. The attempt that starts later than this is the last: with the
// longest warm-up and window it still ends well inside the 180 s a run
// may take.
const retryFor = 90 * time.Second

// spoiled says why a window does not count, or "" if it does: the ring of
// a steady workload reconfigured on its own (see disturbed), or a fault
// step of failover_passive was not carried out — on the seed, one run in
// ten on a rough hour, the crashed primary's processor does not rejoin the
// ring within 5 s (README, "a finding about the seed") and the faults after
// it have no primary to crash.
func spoiled(e *env, m *measured) string {
	if e.disturbed() {
		return fmt.Sprintf("the ring reconfigured %d times for no fault of the workload's", e.ringsInstalled()-e.ringsAtSetup)
	}
	if m != nil && m.res != nil {
		for _, f := range m.res.faults {
			if f.err != nil {
				return fmt.Sprintf("fault step %s at +%v was not carried out: %v", f.kind, time.Duration(f.at), f.err)
			}
		}
		// On the seed no request of any workload fails, the ones due during
		// an outage included; one that timed out sat through a stall of two
		// seconds.
		if _, failed, _ := m.res.totals(); failed > 0 {
			return fmt.Sprintf("%d requests failed", failed)
		}
	}
	return ""
}

// quietWindow stands a domain up, warms it up and measures one window. A
// spoiled window is discarded and measured again on a fresh domain, for
// as long as the run is younger than retryFor; the last attempt is
// reported whatever happened to it, with what happened named beside the
// figures (run), for a change that makes the ring unstable or recovery
// unreliable spoils every attempt. Every attempt but the last is given up
// as soon as a reconfiguration is seen. The set-up times are those of the
// first attempt, the only one that stands the domain up repeats times.
func (r *runner) quietWindow(traced bool, repeats int, warm, window time.Duration) (*env, setupTimes, *measured, []string, error) {
	var setup setupTimes
	for attempt := 1; ; attempt++ {
		last := time.Duration(r.clk.now()) >= retryFor
		e, times, err := r.standUp(traced, repeats)
		if err != nil {
			return nil, setupTimes{}, nil, nil, err
		}
		if attempt == 1 {
			setup = times
		}
		var m *measured
		if err = r.warmUp(e, warm); err == nil && (last || !e.disturbed()) {
			m, err = r.measure(e, window, !last)
		}
		if err != nil && (last || !e.disturbed()) {
			e.close()
			return nil, setupTimes{}, nil, nil, err
		}
		why := spoiled(e, m)
		if why == "" {
			return e, setup, m, nil, nil
		}
		if last {
			// run reports the fault steps and failures of the window it is
			// handed.
			var disturbed []string
			if e.disturbed() {
				disturbed = []string{fmt.Sprintf("%s in attempt %d as in those before: the figures mix ordering modes and memberships", why, attempt)}
			}
			return e, setup, m, disturbed, nil
		}
		fmt.Fprintf(r.stdout, "# attempt %d discarded: %s; measuring again on a fresh domain\n", attempt, why)
		e.close()
		reclaim()
		repeats = 1
	}
}

// runMeasured is the untraced run: the end-to-end metrics.
func (r *runner) runMeasured(ms *metricSet) (*driveResult, audit, []string, error) {
	window := time.Duration(r.seconds) * time.Second
	e, setup, m, disturbed, err := r.quietWindow(false, setupRepeats, min(warmup, window/2), window)
	if err != nil {
		return nil, audit{}, nil, err
	}
	defer e.close()
	res, before, after, statsBefore, statsAfter := m.res, m.before, m.after, m.statsBefore, m.statsAfter
	aud, err := r.auditEnv(e)
	if err != nil {
		return nil, audit{}, nil, err
	}

	attempted, failed, _ := res.totals()
	done := float64(attempted - failed)
	ms.set("setup_s", setup.total)
	if !res.primary.lateGen {
		whole := summarize(append([]int64(nil), res.primary.lat...))
		lat := steady(res.primary.lat)
		ms.setTiming("lat_p50_us", "", lat, 1e3)
		if endToEndMetric("lat_p99_us").appliesTo(r.wl.name) {
			ms.setTiming("", "lat_p99_us", lat, 1e3)
			ms.set("lat_p99_us.whole_window", whole.Tail/1e3)
		}
	}
	// Throughput and CPU cost are read over the throughput phase (the
	// whole window except on the ladder, where it is the closed-loop
	// phase: the saturated regime, with no generator sleeping).
	cpuWindow := (after.user - before.user) + (after.sys - before.sys)
	ms.set("ops_per_s.whole_window", ratio(float64(res.throughput.verified()), res.throughput.dur.Seconds()))
	ms.set("cpu_us_per_op.whole_window", ratio(float64(cpuWindow)/1e3, done))
	ms.set("cpu_sys_share", ratio(float64(after.sys-before.sys), float64(cpuWindow)))
	ops, cpu, ok := steadyRates(m.points, res.throughput.from, res.throughput.to)
	if !ok {
		ops, cpu = ms.values["ops_per_s.whole_window"], ms.values["cpu_us_per_op.whole_window"]
	}
	if endToEndMetric("ops_per_s").appliesTo(r.wl.name) {
		ms.set("ops_per_s", ops)
	}
	ms.set("cpu_us_per_op", cpu)
	ms.set("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), done))
	ms.set("alloc_kb_per_op", ratio(float64(after.allocated-before.allocated)/1024, done))
	for name, v := range res.extra {
		ms.set(name, v)
	}
	ms.set("audit.issued", float64(aud.issued))
	ms.set("audit.acked", float64(aud.acked))
	ms.set("audit.ops_counter", float64(aud.opsCounter))
	ms.set("faults.fired", float64(firedFaults(res.faults)))
	ms.set("totem.demotions", float64(statsAfter.totem.Demotions-statsBefore.totem.Demotions))
	ms.set("totem.reconfigs", float64(statsAfter.totem.Reconfigs-statsBefore.totem.Reconfigs))
	ms.notes["setup_s"] = fmt.Sprintf("median of %d stand-ups; sequencer %q", setupRepeats, e.sequencer())
	// rss_peak_mb is read last: the peak includes the audit.
	ms.set("rss_peak_mb", rssPeakMiB())
	return res, aud, disturbed, nil
}

func firedFaults(fs []faultRec) int {
	n := 0
	for _, f := range fs {
		if f.fired != 0 {
			n++
		}
	}
	return n
}

// writeResult stores the run's full record under outDir.
func (r *runner) writeResult(file *resultFile) (string, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-s%d.json", r.wl.name, r.seed)
	if r.trace {
		name = fmt.Sprintf("%s-s%d-trace.json", r.wl.name, r.seed)
	}
	path := filepath.Join(r.outDir, name)
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
