// Package faultinject provides scripted fault schedules for experiments
// and tests: actions (crash a node, kill a gateway, partition the
// network) fired when a workload reaches a given operation count. Step
// triggers are counted rather than timed so experiments are reproducible
// regardless of machine speed.
package faultinject

import (
	"sort"
	"sync"
)

// Step is one scheduled fault: Action fires the first time the
// operation counter reaches AtOp.
type Step struct {
	// AtOp is the 1-based operation count that triggers the action.
	AtOp uint64
	// Name describes the fault for reports.
	Name string
	// Action performs the fault.
	Action func()
}

// FiredStep is one entry of a plan's event log: which step fired and at
// which operation count. With count-based triggers and a seeded
// generator the log is a pure function of (seed, workload), which is
// what makes fault schedules replayable.
type FiredStep struct {
	Name string
	AtOp uint64
}

// Plan is an ordered fault schedule. Create with NewPlan; drive it by
// calling Tick once per completed operation. Plan is safe for concurrent
// use.
type Plan struct {
	mu    sync.Mutex
	steps []Step
	next  int
	ops   uint64
	fired []FiredStep
}

// NewPlan builds a plan from steps (sorted by AtOp).
func NewPlan(steps ...Step) *Plan {
	sorted := append([]Step(nil), steps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtOp < sorted[j].AtOp })
	return &Plan{steps: sorted}
}

// Tick records one completed operation and fires any step whose
// threshold has been reached. Actions run on the caller's goroutine, in
// schedule order.
func (p *Plan) Tick() {
	p.mu.Lock()
	p.ops++
	var due []Step
	for p.next < len(p.steps) && p.steps[p.next].AtOp <= p.ops {
		due = append(due, p.steps[p.next])
		p.fired = append(p.fired, FiredStep{Name: p.steps[p.next].Name, AtOp: p.ops})
		p.next++
	}
	p.mu.Unlock()
	for _, s := range due {
		s.Action()
	}
}

// Ops returns the number of operations ticked so far.
func (p *Plan) Ops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ops
}

// FiredAt returns the plan's event log: every fired step with the
// operation count at which it actually fired, in firing order.
func (p *Plan) FiredAt() []FiredStep {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]FiredStep(nil), p.fired...)
}

// Steps returns a copy of the plan's schedule (sorted by AtOp), fired or
// not — the shape a harness dumps alongside a failing trace so the
// schedule of a seed can be inspected without re-running it.
func (p *Plan) Steps() []FiredStep {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FiredStep, len(p.steps))
	for i, s := range p.steps {
		out[i] = FiredStep{Name: s.Name, AtOp: s.AtOp}
	}
	return out
}
