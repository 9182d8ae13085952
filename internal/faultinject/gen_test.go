package faultinject

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestGenerateDeterministic is the determinism regression gate for the
// seeded generator: the same seed must produce the identical schedule
// and, driven by the same workload, the identical event log.
func TestGenerateDeterministic(t *testing.T) {
	build := func(seed uint64) (*Plan, []string) {
		var log []string
		rng := rand.New(rand.NewSource(int64(Split(seed, 0))))
		p := Generate(rng,
			StepSpec{Name: "partition", MinOp: 5, MaxOp: 40, Action: func() { log = append(log, "partition") }},
			StepSpec{Name: "crash", MinOp: 10, MaxOp: 60, Action: func() { log = append(log, "crash") }},
			StepSpec{Name: "heal", MinOp: 60, MaxOp: 90, Action: func() { log = append(log, "heal") }},
		)
		for i := 0; i < 100; i++ {
			p.Tick()
		}
		return p, log
	}

	p1, log1 := build(1234)
	p2, log2 := build(1234)
	if !reflect.DeepEqual(p1.Steps(), p2.Steps()) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", p1.Steps(), p2.Steps())
	}
	if !reflect.DeepEqual(p1.FiredAt(), p2.FiredAt()) {
		t.Fatalf("same seed produced different event logs:\n%v\n%v", p1.FiredAt(), p2.FiredAt())
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same seed fired actions in different orders: %v vs %v", log1, log2)
	}
	if len(p1.FiredAt()) != len(p1.Steps()) {
		t.Fatalf("plan incomplete after 100 ops: %v", p1.FiredAt())
	}

	p3, _ := build(99)
	if reflect.DeepEqual(p1.Steps(), p3.Steps()) {
		t.Fatalf("different seeds produced the identical schedule %v", p1.Steps())
	}
}

func TestSplitStreamsIndependent(t *testing.T) {
	if Split(7, 0) == Split(7, 1) {
		t.Fatal("streams 0 and 1 collide")
	}
	if Split(7, 0) != Split(7, 0) {
		t.Fatal("Split is not a pure function")
	}
}

func TestFiredAtRecordsOpCounts(t *testing.T) {
	p := NewPlan(
		Step{AtOp: 2, Name: "a", Action: func() {}},
		Step{AtOp: 5, Name: "b", Action: func() {}},
	)
	for i := 0; i < 6; i++ {
		p.Tick()
	}
	got := p.FiredAt()
	want := []FiredStep{{Name: "a", AtOp: 2}, {Name: "b", AtOp: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event log %v, want %v", got, want)
	}
}
