package vclock

import (
	"testing"
	"time"
)

// TestClockOrdering pins the discrete-event contract: callbacks fire in
// (time, scheduling order) and Now is the firing event's timestamp.
func TestClockOrdering(t *testing.T) {
	c := New()
	var got []int
	c.After(3*time.Millisecond, func() { got = append(got, 3) })
	c.After(1*time.Millisecond, func() { got = append(got, 1) })
	c.After(1*time.Millisecond, func() { got = append(got, 2) }) // same time: FIFO
	c.After(2*time.Millisecond, func() {
		if c.Now() != int64(2*time.Millisecond) {
			t.Errorf("Now inside callback = %d, want %d", c.Now(), int64(2*time.Millisecond))
		}
		got = append(got, 21)
	})
	for c.Step() {
	}
	want := []int{1, 2, 21, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestClockTimerStop(t *testing.T) {
	c := New()
	fired := false
	tm := c.After(time.Millisecond, func() { fired = true })
	tm.Stop()
	for c.Step() {
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", c.Pending())
	}
}

// TestClockNestedScheduling checks that callbacks scheduling further
// events keep the virtual time monotone.
func TestClockNestedScheduling(t *testing.T) {
	c := New()
	var times []int64
	var tick func()
	n := 0
	tick = func() {
		times = append(times, c.Now())
		n++
		if n < 5 {
			c.After(time.Millisecond, tick)
		}
	}
	c.After(time.Millisecond, tick)
	for c.Step() {
	}
	if len(times) != 5 {
		t.Fatalf("ticked %d times, want 5", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("virtual time not monotone: %v", times)
		}
	}
}
