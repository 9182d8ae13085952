package main

import (
	"fmt"
	"sync"

	"eternalgw/internal/cdr"
	"eternalgw/internal/replication"
)

// servant is the replicated object the benchmark deploys: a byte
// register with an operation counter, behaving as
// experiments.RegisterApp does for echo, set and ops, so the recorded
// rows stay comparable. It is also the benchmark's probe inside the
// domain, one of the two seams the program exposes: each instance is one
// replica incarnation, counts executions per op id, and — in a traced
// run — stamps entry and exit per op id.
type servant struct {
	node   string
	traced bool
	clk    wallClock
	mu     sync.Mutex
	value  []byte
	ops    int64
	execs  chunked[uint8]
	stamps chunked[stamp]
}

// stamp is one execution's entry and exit on the run's clock.
type stamp struct{ entry, exit int64 }

var _ replication.Application = (*servant)(nil)

// Invoke implements replication.Application.
func (s *servant) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "echo":
		data := args.ReadOctetSeq()
		st := s.enter(data)
		s.ops++
		reply.WriteOctetSeq(data)
		s.leave(st)
		return args.Err()
	case "set":
		data := args.ReadOctetSeq()
		st := s.enter(data)
		s.value = append(s.value[:0], data...)
		s.ops++
		reply.WriteLongLong(s.ops)
		s.leave(st)
		return args.Err()
	case "ops":
		reply.WriteLongLong(s.ops)
		return nil
	default:
		return fmt.Errorf("bench servant: unknown operation %q", op)
	}
}

// enter counts one execution of the payload's op id and, when traced,
// stamps its entry. Callers hold mu.
func (s *servant) enter(payload []byte) *stamp {
	op, _, ok := parseHead(payload)
	if !ok {
		return nil
	}
	if c := s.execs.at(op); *c < 255 {
		*c++
	}
	if !s.traced {
		return nil
	}
	st := s.stamps.at(op)
	st.entry = s.clk.now()
	return st
}

func (s *servant) leave(st *stamp) {
	if st != nil {
		st.exit = s.clk.now()
	}
}

// State implements replication.Application.
func (s *servant) State() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(s.ops)
	w.WriteOctetSeq(s.value)
	return w.Bytes(), nil
}

// SetState implements replication.Application.
func (s *servant) SetState(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	s.ops = r.ReadLongLong()
	s.value = append(s.value[:0], r.ReadOctetSeq()...)
	return r.Err()
}

// opCount returns the object's operation counter at this incarnation.
func (s *servant) opCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// executions returns how often this incarnation executed op.
func (s *servant) executions(op uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.execs.get(op))
}

// stampOf returns the traced entry/exit of op at this incarnation.
func (s *servant) stampOf(op uint64) stamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stamps.get(op)
}

// incarnations hands out servants and remembers every one it made, so
// the audit at the end sees replicas that were discarded on the way.
type incarnations struct {
	traced bool
	clk    wallClock
	mu     sync.Mutex
	all    []*servant
}

func (in *incarnations) new(node string) *servant {
	s := &servant{node: node, traced: in.traced, clk: in.clk}
	in.mu.Lock()
	in.all = append(in.all, s)
	in.mu.Unlock()
	return s
}

func (in *incarnations) list() []*servant {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*servant(nil), in.all...)
}
