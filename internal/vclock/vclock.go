// Package vclock is the virtual clock the deterministic harnesses run
// on: a discrete-event scheduler whose time moves only when its next
// event fires. It implements memnet.Clock, so a simulated network's
// delayed deliveries are events of the run, and it imports nothing of
// the module, so both the simulation (internal/sim) and the protocol
// packages' own virtual-time tests (internal/totem's vnet_test.go) can
// use it.
package vclock

import (
	"container/heap"
	"time"
)

// event is one scheduled callback on the virtual clock.
type event struct {
	at  int64 // virtual nanoseconds
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a virtual clock and event queue. It is not safe for
// concurrent use: a harness runs single-threaded, which is what makes
// goroutine-visible interleaving a function of the seed. Ties at the
// same instant fire in scheduling order.
type Clock struct {
	now  int64
	seq  uint64
	heap eventHeap
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as nanoseconds since the start
// of the run.
func (c *Clock) Now() int64 { return c.now }

// AfterFunc schedules f to run once d has elapsed on the virtual clock.
// It implements memnet.Clock, so a simulated network's delayed
// deliveries become ordinary events of the run.
func (c *Clock) AfterFunc(d time.Duration, f func()) {
	if d < 0 {
		d = 0
	}
	c.seq++
	heap.Push(&c.heap, &event{at: c.now + int64(d), seq: c.seq, fn: f})
}

// Timer is a cancellable scheduled callback.
type Timer struct{ stopped bool }

// Stop cancels the timer; the callback will not run.
func (t *Timer) Stop() {
	if t != nil {
		t.stopped = true
	}
}

// After schedules f like AfterFunc but returns a handle that can cancel
// it.
func (c *Clock) After(d time.Duration, f func()) *Timer {
	t := &Timer{}
	c.AfterFunc(d, func() {
		if !t.stopped {
			f()
		}
	})
	return t
}

// Step pops and runs the earliest pending event, advancing virtual time
// to its deadline. It reports false when no events remain.
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	e := heap.Pop(&c.heap).(*event)
	if e.at > c.now {
		c.now = e.at
	}
	e.fn()
	return true
}

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.heap) }
