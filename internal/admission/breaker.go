package admission

import (
	"sync"
	"time"
)

const (
	// breakerThreshold is the signal level treated as overload.
	breakerThreshold = 0.9
	// breakerSustain is how long the signal must stay at or above the
	// threshold before the breaker opens.
	breakerSustain = 200 * time.Millisecond
	// breakerCooldown is the minimum open time; the breaker closes once
	// the signal is back below the threshold and the cooldown has elapsed.
	breakerCooldown = time.Second
	// breakerInterval is the minimum time between samples of the
	// backpressure signal (samples are taken lazily on admission
	// decisions).
	breakerInterval = 10 * time.Millisecond
)

// breaker is the domain-backpressure circuit breaker: it opens when the
// sampled load signal stays at or above the threshold for the sustain
// period, and closes once the signal is back below the threshold and the
// cooldown has elapsed. Sampling is lazy — the controller calls sample on
// admission decisions, and the interval gate keeps the signal function
// (which walks replication state) off the per-request fast path. A nil
// *breaker (no Backpressure configured) is permanently closed.
type breaker struct {
	signal func() float64

	mu         sync.Mutex
	lastSample time.Time
	lastValue  float64
	aboveSince time.Time // zero while the signal is below the threshold
	openSince  time.Time
	open       bool
	trips      uint64
}

// newBreaker builds the breaker, or nil when cfg has no signal.
func newBreaker(cfg Config) *breaker {
	if cfg.Backpressure == nil {
		return nil
	}
	return &breaker{signal: cfg.Backpressure}
}

// sample refreshes the breaker state (at most once per interval) and
// reports whether it is open.
func (b *breaker) sample(now time.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	if !b.lastSample.IsZero() && now.Sub(b.lastSample) < breakerInterval {
		open := b.open
		b.mu.Unlock()
		return open
	}
	b.lastSample = now
	b.mu.Unlock()
	// The signal runs outside mu: it walks replication state (the totem
	// send backlog, every pending-call shard), so holding the breaker
	// lock across it would serialize concurrent admission decisions
	// behind the walk — the very fast path the interval gate exists to
	// protect — and hands the lock to code whose own acquisitions are
	// invisible here (gwlint lockorder). Claiming lastSample before
	// releasing keeps the walk to one caller per interval; callers that
	// lose the claim return the previous verdict.
	v := b.signal()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastValue = v
	if b.lastValue >= breakerThreshold {
		if b.aboveSince.IsZero() {
			b.aboveSince = now
		}
		if !b.open && now.Sub(b.aboveSince) >= breakerSustain {
			b.open = true
			b.openSince = now
			b.trips++
		}
	} else {
		b.aboveSince = time.Time{}
		if b.open && now.Sub(b.openSince) >= breakerCooldown {
			b.open = false
		}
	}
	return b.open
}

// isOpen reports the current state without sampling.
func (b *breaker) isOpen() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// tripCount reports how many times the breaker has opened.
func (b *breaker) tripCount() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
