package main

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a clock the test advances by hand: sleeping moves it to
// the requested instant exactly.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64     { return c.t }
func (c *fakeClock) sleep(ns int64) { c.t += ns }

func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	clk := &fakeClock{}
	const (
		gap   = int64(time.Millisecond)
		stall = 10 * int64(time.Millisecond)
		cost  = int64(10 * time.Microsecond) // what one send takes
	)
	type sent struct{ due, at int64 }
	var log []sent
	openLoop(clk, 0, 30*gap, func() int64 { return gap }, func(due int64) {
		log = append(log, sent{due: due, at: clk.t})
		clk.t += cost
		if len(log) == 5 {
			clk.t += stall // the fifth send blocks: a full socket, a stolen CPU
		}
	}, func() {})

	if len(log) != 29 {
		t.Fatalf("sent %d requests, want 29 (one per ms, due before 30 ms)", len(log))
	}
	for i, s := range log {
		if want := int64(i+1) * gap; s.due != want {
			t.Fatalf("request %d due at %d, want %d: the schedule must not slip with the stall", i, s.due, want)
		}
		late := s.at - s.due
		switch {
		case i < 5:
			if late != 0 {
				t.Errorf("request %d sent %d ns late before the stall", i, late)
			}
		case i < 15:
			// Due during the stall: sent only when it ended, so each
			// inherits what was left of the wait — less for later ones.
			if late <= 0 {
				t.Errorf("request %d, due during the stall, shows no wait (late %d)", i, late)
			}
			if i > 5 && late >= log[i-1].at-log[i-1].due {
				t.Errorf("request %d late %d, want less than its predecessor's %d", i, late, log[i-1].at-log[i-1].due)
			}
		default:
			if late != 0 {
				t.Errorf("request %d sent %d ns late after the backlog drained", i, late)
			}
		}
	}
	// Timed from the due time, the stall costs the requests behind it
	// about stall²/2·rate in total; timed from the send it would cost the
	// one blocked request alone.
	var fromDue int64
	for _, s := range log {
		fromDue += s.at - s.due
	}
	if fromDue < 40*gap {
		t.Errorf("total wait charged from due times = %v, want at least 40 ms", time.Duration(fromDue))
	}
}

func TestPoissonGapFollowsTheSeedAndTheRate(t *testing.T) {
	a, b := poissonGap(rand.New(rand.NewSource(7)), 1000), poissonGap(rand.New(rand.NewSource(7)), 1000)
	var sum int64
	const n = 20000
	for i := 0; i < n; i++ {
		x := a()
		if x != b() {
			t.Fatal("the same seed gave different arrival times")
		}
		sum += x
	}
	if mean := float64(sum) / n; mean < 0.95e6 || mean > 1.05e6 {
		t.Errorf("mean inter-arrival = %.0f ns at 1000 req/s, want about 1e6", mean)
	}
}

func TestFaultPlanScalesTheReferenceSchedule(t *testing.T) {
	steps, down := faultPlan(39*time.Second, rand.New(rand.NewSource(1)))
	if len(steps) != 6 || down != 2*time.Second {
		t.Fatalf("39 s: %d steps, downtime %v; want 6 steps, 2 s", len(steps), down)
	}
	for i, s := range steps {
		want := (3 + 6*time.Duration(i)) * time.Second
		if d := time.Duration(s.at) - want; d < -250*time.Millisecond || d > 250*time.Millisecond {
			t.Errorf("step %d at %v, want %v ± 250 ms", i, time.Duration(s.at), want)
		}
		if kind := []string{"gateway", "primary"}[i%2]; s.kind != kind {
			t.Errorf("step %d is a %s fault, want %s", i, s.kind, kind)
		}
	}
	// The last repair must be over before the window is.
	for _, window := range []time.Duration{time.Second, 8 * time.Second, 30 * time.Second} {
		steps, down := faultPlan(window, rand.New(rand.NewSource(1)))
		last := time.Duration(steps[len(steps)-1].at) + down
		if last >= window {
			t.Errorf("window %v: last repair at %v", window, last)
		}
	}
}

func TestPayloadHeadAndVerification(t *testing.T) {
	src := newPayloadSource(42, 64)
	args := make([]byte, src.argsLen())
	src.fillArgs(args, 128, 999)
	payload := args[4:]
	if op, sent, ok := parseHead(payload); !ok || op != 128 || sent != 999 {
		t.Fatalf("parseHead = %d, %d, %v", op, sent, ok)
	}
	if !src.checkEcho(payload, 128) {
		t.Error("a faithful echo failed verification")
	}
	if src.checkEcho(payload, 129) {
		t.Error("a reply matched to the wrong request passed")
	}
	if src.checkEcho(payload[:60], 128) {
		t.Error("a truncated reply passed")
	}
	// Op 128 is one of the 1-in-64 whose body is compared in full.
	payload[40] ^= 1
	if src.checkEcho(payload, 128) {
		t.Error("a corrupted body passed the full comparison")
	}
	// The same seed gives the same bytes; another seed does not.
	again, other := make([]byte, src.argsLen()), make([]byte, src.argsLen())
	newPayloadSource(42, 64).fillArgs(again, 5, 0)
	src.fillArgs(args, 5, 0)
	newPayloadSource(43, 64).fillArgs(other, 5, 0)
	if string(again) != string(args) || string(other) == string(args) {
		t.Error("payload bytes do not follow the seed")
	}
}
