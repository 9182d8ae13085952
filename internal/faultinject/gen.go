package faultinject

import (
	"fmt"
	"math/rand"
)

// Split derives an independent sub-seed from (seed, stream) with a
// splitmix64 finalizer. Every consumer that wants reproducible fault
// schedules derives all of its randomness from a *rand.Rand seeded with
// one of these (never from the global rand, and never from time.Now), so
// a seed fully determines the schedule. Harnesses give each nondeterminism source — the
// network, the schedule, the workload — its own stream so pinning one
// knob does not shift the draws of the others.
func Split(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StepSpec describes one randomized step for Generate: the action fires
// at an operation count drawn uniformly from [MinOp, MaxOp]. MaxOp <
// MinOp is treated as MinOp (a fixed trigger).
type StepSpec struct {
	Name   string
	MinOp  uint64
	MaxOp  uint64
	Action func()
}

// Generate draws a concrete plan from specs using rng. Draw order is
// the spec order, so the same rng state always yields the same
// schedule; the returned plan sorts the drawn steps by trigger as
// NewPlan does.
func Generate(rng *rand.Rand, specs ...StepSpec) *Plan {
	steps := make([]Step, 0, len(specs))
	for _, sp := range specs {
		at := sp.MinOp
		if sp.MaxOp > sp.MinOp {
			at = sp.MinOp + uint64(rng.Int63n(int64(sp.MaxOp-sp.MinOp+1)))
		}
		if at == 0 {
			at = 1
		}
		steps = append(steps, Step{AtOp: at, Name: sp.Name, Action: sp.Action})
	}
	return NewPlan(steps...)
}

// Describe renders a schedule (fired or planned) as one line per step,
// the form harnesses embed in failure artifacts.
func Describe(steps []FiredStep) string {
	out := ""
	for _, s := range steps {
		out += fmt.Sprintf("@%d %s\n", s.AtOp, s.Name)
	}
	return out
}
