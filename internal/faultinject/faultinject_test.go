package faultinject

import (
	"reflect"
	"sync"
	"testing"
)

func TestStepsFireAtThresholds(t *testing.T) {
	var fired []int
	p := NewPlan(
		Step{AtOp: 3, Name: "three", Action: func() { fired = append(fired, 3) }},
		Step{AtOp: 1, Name: "one", Action: func() { fired = append(fired, 1) }},
		Step{AtOp: 5, Name: "five", Action: func() { fired = append(fired, 5) }},
	)
	for i := 0; i < 6; i++ {
		p.Tick()
	}
	if !reflect.DeepEqual(fired, []int{1, 3, 5}) {
		t.Fatalf("fired = %v", fired)
	}
	if want := []FiredStep{{"one", 1}, {"three", 3}, {"five", 5}}; !reflect.DeepEqual(p.FiredAt(), want) {
		t.Fatalf("fired = %v, want %v", p.FiredAt(), want)
	}
	if p.Ops() != 6 {
		t.Fatalf("ops = %d", p.Ops())
	}
}

func TestStepFiresOnce(t *testing.T) {
	count := 0
	p := NewPlan(Step{AtOp: 2, Name: "x", Action: func() { count++ }})
	for i := 0; i < 10; i++ {
		p.Tick()
	}
	if count != 1 {
		t.Fatalf("fired %d times", count)
	}
}

func TestMultipleStepsSameThreshold(t *testing.T) {
	var fired []string
	p := NewPlan(
		Step{AtOp: 2, Name: "a", Action: func() { fired = append(fired, "a") }},
		Step{AtOp: 2, Name: "b", Action: func() { fired = append(fired, "b") }},
	)
	p.Tick()
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	p.Tick()
	if !reflect.DeepEqual(fired, []string{"a", "b"}) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEmptyPlanIsDone(t *testing.T) {
	p := NewPlan()
	if len(p.FiredAt()) != len(p.Steps()) {
		t.Fatal("empty plan not done")
	}
	p.Tick() // must not panic
}

func TestConcurrentTicks(t *testing.T) {
	var mu sync.Mutex
	count := 0
	p := NewPlan(Step{AtOp: 50, Name: "mid", Action: func() {
		mu.Lock()
		count++
		mu.Unlock()
	}})
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p.Tick()
			}
		}()
	}
	wg.Wait()
	if count != 1 {
		t.Fatalf("fired %d times under concurrency", count)
	}
	if p.Ops() != 100 {
		t.Fatalf("ops = %d", p.Ops())
	}
}
