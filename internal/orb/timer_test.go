package orb

import (
	"sync"
	"testing"
	"time"
)

// TestReleasedTimerNeverWakesTheNextCall: a timer that fired for one call
// — whether or not the call got round to reading it — comes back from
// AcquireTimer armed for the new wait alone. Run under -race: the pool
// hands timers between goroutines.
func TestReleasedTimerNeverWakesTheNextCall(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// One call times out: its timer fires, and in every other
				// round nobody reads the channel before the release.
				fired := AcquireTimer(time.Microsecond)
				if i%2 == 0 {
					<-fired.C
				} else {
					time.Sleep(50 * time.Microsecond)
				}
				ReleaseTimer(fired)
				// The next call waits long, and is answered at once.
				next := AcquireTimer(time.Hour)
				select {
				case <-next.C:
					t.Error("a timer armed for an hour fired at once: it brought the last call's timeout along")
				default:
				}
				ReleaseTimer(next)
			}
		}()
	}
	wg.Wait()
}
