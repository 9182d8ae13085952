package admission

import (
	"sync/atomic"
	"testing"
	"time"
)

// sig is a controllable backpressure signal.
type sig struct{ bits atomic.Uint64 }

func (s *sig) set(v float64) { s.bits.Store(uint64(v * 1000)) }
func (s *sig) get() float64  { return float64(s.bits.Load()) / 1000 }

// breakerController builds a controller whose breaker reads s. The tests
// sample it at times of their choosing, from time.Now() on: a controller
// call that finds its last sample less than breakerInterval ago, or in
// the future, answers with that sample's verdict.
func breakerController(s *sig) (*Controller, time.Time) {
	return New(Config{Backpressure: s.get}), time.Now()
}

// overload raises the signal and samples it every breakerInterval from
// start until the breaker opens, failing unless that is breakerSustain
// after start. It returns when the breaker opened.
func overload(t *testing.T, c *Controller, s *sig, start time.Time) time.Time {
	t.Helper()
	s.set(1.0)
	for at := start; ; at = at.Add(breakerInterval) {
		open := c.br.sample(at)
		switch held := at.Sub(start); {
		case open && held < breakerSustain:
			t.Fatalf("breaker tripped %v into the overload, before breakerSustain", held)
		case open:
			return at
		case held >= breakerSustain:
			t.Fatalf("breaker still closed %v into the overload", held)
		}
	}
}

func TestBreakerTripsOnSustainedBackpressure(t *testing.T) {
	s := &sig{}
	c, t0 := breakerController(s)
	if c.br.sample(t0) {
		t.Fatal("breaker open with zero signal")
	}
	overload(t, c, s, t0.Add(breakerInterval))
	if !c.ReserveConn(nil) {
		t.Fatal("reservation refused while merely tripped (caps not reached)")
	}
	if v := c.AdmitConn("h"); v != ShedBreaker {
		t.Fatalf("verdict = %v, want ShedBreaker", v)
	}
	st := c.Stats()
	if st.BreakerTrips != 1 || !st.BreakerOpen || st.ConnsShedBreaker != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Requests on established connections are not shed by the breaker.
	release, v := c.AdmitRequest(1)
	if v != Admit {
		t.Fatalf("request verdict while tripped = %v", v)
	}
	release()
}

func TestBreakerRecovers(t *testing.T) {
	s := &sig{}
	c, t0 := breakerController(s)
	opened := overload(t, c, s, t0)
	s.set(0.0)
	// Within breakerInterval of the last sample the signal is not read.
	if !c.br.sample(opened.Add(breakerInterval / 2)) {
		t.Fatal("breaker resampled the signal within breakerInterval")
	}
	if c.br.sample(opened.Add(breakerCooldown)) {
		t.Fatal("breaker did not close after recovery and cooldown")
	}
	if !c.ReserveConn(nil) {
		t.Fatal("reservation refused")
	}
	if v := c.AdmitConn("h"); v != Admit {
		t.Fatalf("post-recovery verdict = %v", v)
	}
}

func TestBreakerSustainFiltersSpikes(t *testing.T) {
	s := &sig{}
	c, t0 := breakerController(s)
	// Spikes a sample short of breakerSustain, each followed by one sample
	// below the threshold.
	at := t0
	for spike := 0; spike < 10; spike++ {
		s.set(1.0)
		for end := at.Add(breakerSustain); at.Before(end); at = at.Add(breakerInterval) {
			if c.br.sample(at) {
				t.Fatalf("breaker tripped on spike %d, shorter than breakerSustain", spike)
			}
		}
		s.set(0.0)
		c.br.sample(at)
		at = at.Add(breakerInterval)
	}
}

func TestBreakerCooldownHoldsOpen(t *testing.T) {
	s := &sig{}
	c, t0 := breakerController(s)
	opened := overload(t, c, s, t0)
	s.set(0.0)
	for at := opened.Add(breakerInterval); at.Before(opened.Add(breakerCooldown)); at = at.Add(breakerInterval) {
		if !c.br.sample(at) {
			t.Fatalf("breaker closed %v into its cooldown of %v", at.Sub(opened), breakerCooldown)
		}
	}
}
