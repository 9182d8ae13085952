// Package experiments holds the demo servant and the claim index. The
// servant, RegisterApp, is the replicated object every daemon, example
// and benchmark of the repository deploys. The claim index is the
// package's test file: one test per figure and evaluated claim of the
// paper (E1–E12, DESIGN.md section 4), each asserting the measurable part
// of its claim through the public domain API; the timings are the
// repository-root BenchmarkE* rows (EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sync"
	"time"

	"eternalgw/internal/cdr"
)

// RegisterApp is the deterministic workload object: a byte register with
// an operation counter.
type RegisterApp struct {
	mu    sync.Mutex
	value []byte
	ops   int64
}

// Invoke implements replication.Application.
func (a *RegisterApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "set":
		a.value = append(a.value[:0], args.ReadOctetSeq()...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return args.Err()
	case "append":
		a.value = append(a.value, args.ReadOctetSeq()...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return args.Err()
	case "echo":
		a.ops++
		reply.WriteOctetSeq(args.ReadOctetSeq())
		return args.Err()
	case "work":
		// Sleep the given number of milliseconds, then append. Used to
		// hold an invocation "inside" the domain while faults are
		// injected; the delay is identical at every replica, so
		// determinism is preserved.
		ms := args.ReadULong()
		data := args.ReadOctetSeq()
		if err := args.Err(); err != nil {
			return err
		}
		a.mu.Unlock()
		time.Sleep(time.Duration(ms) * time.Millisecond)
		a.mu.Lock()
		a.value = append(a.value, data...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return nil
	case "read":
		reply.WriteOctetSeq(a.value)
		return nil
	case "ops":
		reply.WriteLongLong(a.ops)
		return nil
	default:
		return fmt.Errorf("RegisterApp: unknown operation %q", op)
	}
}

// State implements replication.Application.
func (a *RegisterApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.ops)
	w.WriteOctetSeq(a.value)
	return w.Bytes(), nil
}

// SetState implements replication.Application.
func (a *RegisterApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.ops = r.ReadLongLong()
	a.value = append(a.value[:0], r.ReadOctetSeq()...)
	return r.Err()
}

// Ops returns the executed-operation count.
func (a *RegisterApp) Ops() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ops
}

// Value returns a copy of the register contents.
func (a *RegisterApp) Value() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.value...)
}

// WorkArg CDR-encodes the arguments of the "work" operation: a sleep in
// milliseconds followed by the bytes to append.
func WorkArg(ms uint32, data []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(ms)
	w.WriteOctetSeq(data)
	return w.Bytes()
}

// OctetSeqArg CDR-encodes a sequence<octet> argument.
func OctetSeqArg(b []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctetSeq(b)
	return w.Bytes()
}
