package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// OpKey is the simulation's operation identifier: the paper's
// (client id, operation sequence) pair that makes duplicate detection
// possible. Real-stack adapters map replication.OperationID into the
// A/B fields (ParentTS, ChildSeq); the sim's own clients use A=0 and a
// per-client counter in B.
type OpKey struct {
	Client uint64
	A, B   uint64
}

func (k OpKey) String() string { return fmt.Sprintf("%d.%d.%d", k.Client, k.A, k.B) }

// Event kinds recorded in a trace. The set is the vocabulary the
// invariant checkers read; docs/SIMULATION.md documents each.
const (
	EvIssue      = "issue"       // client issued a new operation
	EvReissue    = "reissue"     // thin client or bridge call reissued after timeout/failover (Val = attempt)
	EvExec       = "exec"        // replica executed an invocation (Seq = total-order position, Hash = state hash after)
	EvDedup      = "dedup"       // replica suppressed a duplicate invocation
	EvRespRec    = "resp"        // gateway recorded the first response for an op
	EvDupResp    = "dup_resp"    // gateway suppressed a duplicate response copy
	EvRecordHit  = "record_hit"  // gateway answered a reissue from its record
	EvReplyOK    = "reply_ok"    // client completed an operation (Val = attempt)
	EvReplyDup   = "reply_dup"   // client ignored a duplicate reply
	EvRestart    = "restart"     // crashed node rejoined with volatile state wiped
	EvRing       = "ring"        // node installed a ring (Note = members, Quorum flag)
	EvFault      = "fault"       // schedule action fired (Note = name)
	EvFinalState = "final_state" // replica's state hash at end of run
	EvEnd        = "end"         // run finished (Note = reason)
)

// Event is one record of a run's trace. Fields not meaningful for a
// kind are zero; Node/Dom/Group use -1 for "not applicable" so zero
// values stay meaningful.
type Event struct {
	T      int64 // virtual nanoseconds
	Kind   string
	Dom    int
	Node   int
	Group  int
	Op     OpKey
	Seq    uint64
	Val    uint64
	Hash   uint64
	Quorum bool
	Note   string
}

// line renders the event in the canonical byte-stable form used for
// replay comparison and artifact dumps.
func (e Event) line() string {
	return fmt.Sprintf("%d\t%s\td%d\tn%d\tg%d\t%s\tseq=%d\tval=%d\thash=%016x\tq=%t\t%s",
		e.T, e.Kind, e.Dom, e.Node, e.Group, e.Op, e.Seq, e.Val, e.Hash, e.Quorum, e.Note)
}

// Trace accumulates the events of one run in order. The zero value is
// not usable; call NewTrace. Trace is safe for concurrent appenders so
// the same recorder serves the single-threaded simulator and the real
// multi-goroutine stack (sim_realstack_test.go); within the simulator
// the lock is uncontended.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Add appends one event.
func (t *Trace) Add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns the recorded events in order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dump renders the whole trace in the canonical line form, one event
// per line — the artifact format replayed seeds are compared against.
func (t *Trace) Dump() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.line())
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash returns the FNV-64a digest of the canonical dump: the quantity
// the determinism gate pins — identical seeds must produce identical
// hashes, byte for byte.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	t.mu.Lock()
	for _, e := range t.events {
		fmt.Fprintln(h, e.line())
	}
	t.mu.Unlock()
	return h.Sum64()
}

// mix64 folds x into h (splitmix-style), the state-hash combiner used
// by replicas and apps.
func mix64(h, x uint64) uint64 {
	z := h ^ (x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
