package orb

import (
	"sync"
	"time"
)

// timers holds stopped, drained timers: a call that waits with a timeout
// takes one and gives it back, so waiting allocates nothing.
var timers sync.Pool

// AcquireTimer returns a timer that fires after d. Give it back with
// ReleaseTimer, fired or not.
func AcquireTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// ReleaseTimer stops t and takes back what it may have sent, so that a
// timer which fired for one call never wakes the next.
func ReleaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timers.Put(t)
}
