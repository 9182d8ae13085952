package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one hop of an invocation's path through the
// infrastructure: the gateway's inbound loop, the totally-ordered
// multicast, the replicas, and the gateway's outbound loop (paper
// figure 5).
type Stage uint8

// Trace span stages, in datapath order.
const (
	// StageGatewayAccept marks the arrival of the request's GIOP message
	// on the gateway's external TCP socket.
	StageGatewayAccept Stage = iota + 1
	// StageIIOPDecode marks the request header successfully decoded.
	StageIIOPDecode
	// StageMulticastSend marks the invocation handed to the
	// totally-ordered multicast.
	StageMulticastSend
	// StageDeliver marks the invocation's delivery in total order.
	StageDeliver
	// StageExecute marks a replica executing the operation.
	StageExecute
	// StageDupSuppressed marks a duplicate (invocation or response)
	// detected and suppressed instead of executed/delivered.
	StageDupSuppressed
	// StageReplyWrite marks the reply written back to the client socket;
	// it completes the trace.
	StageReplyWrite
)

// String returns the stage's span-event name as documented in
// docs/OBSERVABILITY.md.
func (s Stage) String() string {
	switch s {
	case StageGatewayAccept:
		return "gateway_accept"
	case StageIIOPDecode:
		return "iiop_decode"
	case StageMulticastSend:
		return "multicast_send"
	case StageDeliver:
		return "total_order_deliver"
	case StageExecute:
		return "replica_execute"
	case StageDupSuppressed:
		return "duplicate_suppressed"
	case StageReplyWrite:
		return "reply_write"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// TraceKey identifies one traced operation. It is exactly the paper's
// operation identifier (T_A_inv, S_A_inv) — identical at every replica,
// which is what lets span events emitted on different nodes land on the
// same trace — plus the TCP client identifier a gateway tagged the
// invocation with.
type TraceKey struct {
	ClientID uint64
	ParentTS uint64
	ChildSeq uint32
}

// String renders the key as client/(parentTS,childSeq).
func (k TraceKey) String() string {
	return fmt.Sprintf("%d/(%d,%d)", k.ClientID, k.ParentTS, k.ChildSeq)
}

// SpanEvent is one recorded hop of a trace.
type SpanEvent struct {
	Stage Stage
	At    time.Time
	Note  string // e.g. the node the event fired on
}

// Trace is the recorded path of one operation.
type Trace struct {
	Key    TraceKey
	Start  time.Time
	Events []SpanEvent
	// Done is true once the reply was written to the client (or false
	// for a trace evicted while still in flight).
	Done bool
}

// Hop is one edge of a trace's per-hop latency breakdown.
type Hop struct {
	From, To Stage
	D        time.Duration
}

// Breakdown computes the per-hop latency of the trace: the elapsed time
// between the first occurrence of each stage, in datapath order. Stages
// that never fired (e.g. no duplicate was suppressed) are skipped.
func (t *Trace) Breakdown() []Hop {
	first := make(map[Stage]time.Time, len(t.Events))
	for _, e := range t.Events {
		if _, ok := first[e.Stage]; !ok {
			first[e.Stage] = e.At
		}
	}
	order := [...]Stage{StageGatewayAccept, StageIIOPDecode, StageMulticastSend,
		StageDeliver, StageExecute, StageDupSuppressed, StageReplyWrite}
	var hops []Hop
	var prevStage Stage
	var prevAt time.Time
	for _, s := range order {
		at, ok := first[s]
		if !ok {
			continue
		}
		if prevStage != 0 {
			hops = append(hops, Hop{From: prevStage, To: s, D: at.Sub(prevAt)})
		}
		prevStage, prevAt = s, at
	}
	return hops
}

// Total returns the elapsed time from the first to the last event.
func (t *Trace) Total() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	last := t.Events[0].At
	for _, e := range t.Events {
		if e.At.After(last) {
			last = e.At
		}
	}
	return last.Sub(t.Start)
}

// Tracer records invocation traces into a bounded ring of recent
// completions. A nil *Tracer is the disabled tracer: every method is a
// no-op behind a single nil check, which is all the instrumented hot
// paths pay by default.
type Tracer struct {
	mu         sync.Mutex
	active     map[TraceKey]*Trace
	activeFIFO []TraceKey
	recent     []*Trace // ring, recent[next-1] is newest
	next       int
	filled     bool
	cap        int

	started   atomic.Uint64
	completed atomic.Uint64
	evicted   atomic.Uint64
}

// NewTracer creates a tracer keeping the most recent capacity completed
// traces (capacity <= 0 means 256). At most 4*capacity traces may be in
// flight; beyond that the oldest in-flight trace is evicted to the ring
// marked incomplete, so abandoned requests surface instead of leaking.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{
		active: make(map[TraceKey]*Trace),
		recent: make([]*Trace, capacity),
		cap:    capacity,
	}
}

// Event records a span event now. The first StageGatewayAccept (or
// StageMulticastSend, for invocations that never crossed a gateway)
// starts a trace; events for keys with no in-flight trace are dropped.
func (t *Tracer) Event(key TraceKey, stage Stage, note string) {
	if t == nil {
		return
	}
	t.record(key, stage, time.Now(), note)
}

// EventAt records a span event with an explicit timestamp, for callers
// that captured the instant before doing the work (e.g. the gateway
// noting a message's arrival before decoding it).
func (t *Tracer) EventAt(key TraceKey, stage Stage, at time.Time, note string) {
	if t == nil {
		return
	}
	t.record(key, stage, at, note)
}

func (t *Tracer) record(key TraceKey, stage Stage, at time.Time, note string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.active[key]
	if !ok {
		if stage != StageGatewayAccept && stage != StageMulticastSend {
			return // late event for a completed or evicted trace
		}
		tr = &Trace{Key: key, Start: at}
		t.active[key] = tr
		t.activeFIFO = append(t.activeFIFO, key)
		t.started.Add(1)
		if len(t.activeFIFO) > 4*t.cap {
			old := t.activeFIFO[0]
			t.activeFIFO = t.activeFIFO[1:]
			if stale, live := t.active[old]; live {
				delete(t.active, old)
				t.evicted.Add(1)
				t.pushRecent(stale)
			}
		}
	}
	tr.Events = append(tr.Events, SpanEvent{Stage: stage, At: at, Note: note})
	if stage == StageReplyWrite {
		tr.Done = true
		delete(t.active, key)
		t.completed.Add(1)
		t.pushRecent(tr)
	}
}

// pushRecent stores a finished (or evicted) trace in the ring. Callers
// hold mu.
func (t *Tracer) pushRecent(tr *Trace) {
	t.recent[t.next] = tr
	t.next++
	if t.next == t.cap {
		t.next = 0
		t.filled = true
	}
}

// Recent returns copies of the retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = t.cap
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := t.next - 1 - i
		if idx < 0 {
			idx += t.cap
		}
		tr := t.recent[idx]
		if tr == nil {
			continue
		}
		cp := &Trace{Key: tr.Key, Start: tr.Start, Done: tr.Done,
			Events: append([]SpanEvent(nil), tr.Events...)}
		out = append(out, cp)
	}
	return out
}

// ActiveCount reports traces still in flight.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Register publishes the tracer's own bookkeeping counters on a
// registry.
func (t *Tracer) Register(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("eternalgw_trace_started_total", "Traces started.", nil, t.started.Load)
	r.CounterFunc("eternalgw_trace_completed_total", "Traces completed by a reply write.", nil, t.completed.Load)
	r.CounterFunc("eternalgw_trace_evicted_total", "In-flight traces evicted before completion.", nil, t.evicted.Load)
	r.GaugeFunc("eternalgw_trace_active", "Traces currently in flight.", nil, func() float64 { return float64(t.ActiveCount()) })
}
