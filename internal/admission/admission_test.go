package admission

import (
	"sync"
	"testing"
	"time"
)

func TestEmptyConfigIsUnlimited(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 100; i++ {
		if !c.ReserveConn(nil) {
			t.Fatal("unlimited controller blocked a reservation")
		}
		if v := c.AdmitConn("h"); v != Admit {
			t.Fatalf("verdict = %v", v)
		}
		release, v := c.AdmitRequest(uint64(i))
		if v != Admit {
			t.Fatalf("request verdict = %v", v)
		}
		release()
	}
	if got := c.Stats().Admitted; got != 100 {
		t.Fatalf("admitted = %d, want 100", got)
	}
	if c.Draining() || c.InFlight() != 0 || c.BreakerOpen() {
		t.Fatalf("unlimited controller reported state: %+v", c.Stats())
	}
}

func TestConnCapBlocksAndReleases(t *testing.T) {
	c := New(Config{MaxConns: 2})
	for i := 0; i < 2; i++ {
		if !c.ReserveConn(nil) {
			t.Fatal("reservation under cap refused")
		}
		if v := c.AdmitConn("h"); v != Admit {
			t.Fatalf("verdict = %v", v)
		}
	}
	// The third reservation must block until a slot frees.
	acquired := make(chan struct{})
	go func() {
		if c.ReserveConn(nil) {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("reservation above cap did not block")
	case <-time.After(20 * time.Millisecond):
	}
	c.ReleaseConn("h")
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("reservation did not unblock after a release")
	}
}

func TestReserveConnCancel(t *testing.T) {
	c := New(Config{MaxConns: 1})
	if !c.ReserveConn(nil) {
		t.Fatal("first reservation refused")
	}
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- c.ReserveConn(cancel) }()
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled reservation succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled reservation still blocked")
	}
}

func TestPerClientConnCap(t *testing.T) {
	c := New(Config{MaxConnsPerClient: 2})
	for i := 0; i < 2; i++ {
		if !c.ReserveConn(nil) {
			t.Fatal("reservation refused")
		}
		if v := c.AdmitConn("10.0.0.1"); v != Admit {
			t.Fatalf("verdict = %v", v)
		}
	}
	if !c.ReserveConn(nil) {
		t.Fatal("reservation refused")
	}
	if v := c.AdmitConn("10.0.0.1"); v != ShedConnPerClient {
		t.Fatalf("over-cap verdict = %v, want ShedConnPerClient", v)
	}
	// A different client address is unaffected.
	if !c.ReserveConn(nil) {
		t.Fatal("reservation refused")
	}
	if v := c.AdmitConn("10.0.0.2"); v != Admit {
		t.Fatalf("other-host verdict = %v", v)
	}
	c.ReleaseConn("10.0.0.1")
	if !c.ReserveConn(nil) {
		t.Fatal("reservation refused")
	}
	if v := c.AdmitConn("10.0.0.1"); v != Admit {
		t.Fatalf("post-release verdict = %v", v)
	}
	if got := c.Stats().ConnsOverCap; got != 1 {
		t.Fatalf("ConnsOverCap = %d, want 1", got)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	c := New(Config{Rate: 10})
	const client = 42
	var admitted, shed int
	for i := 0; i < 22; i++ {
		release, v := c.AdmitRequest(client)
		switch v {
		case Admit:
			admitted++
			release()
		case ShedRate:
			shed++
		default:
			t.Fatalf("verdict = %v", v)
		}
	}
	if admitted != 20 || shed != 2 {
		t.Fatalf("admitted=%d shed=%d, want a burst of twice the rate, 20, admitted and 2 shed", admitted, shed)
	}
	// Refill at 10/s: ~150ms buys at least one token back.
	time.Sleep(150 * time.Millisecond)
	if _, v := c.AdmitRequest(client); v != Admit {
		t.Fatalf("post-refill verdict = %v", v)
	}
	// A different client has its own bucket.
	if _, v := c.AdmitRequest(client + 1); v != Admit {
		t.Fatalf("other-client verdict = %v", v)
	}
}

func TestInFlightWindowShedsAtDeadline(t *testing.T) {
	c := New(Config{MaxInFlight: 2, AdmitWait: 10 * time.Millisecond})
	r1, v := c.AdmitRequest(1)
	if v != Admit {
		t.Fatalf("verdict = %v", v)
	}
	_, v = c.AdmitRequest(2)
	if v != Admit {
		t.Fatalf("verdict = %v", v)
	}
	start := time.Now()
	_, v = c.AdmitRequest(3)
	if v != ShedWindow {
		t.Fatalf("over-window verdict = %v, want ShedWindow", v)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("shed after %v, want at least the 10ms AdmitWait", waited)
	}
	// Freeing a slot lets the next request in, and waiting requests are
	// admitted when a slot frees within the deadline.
	done := make(chan Verdict, 1)
	go func() {
		_, v := c.AdmitRequest(4)
		done <- v
	}()
	time.Sleep(2 * time.Millisecond)
	r1()
	if v := <-done; v != Admit {
		t.Fatalf("post-release verdict = %v", v)
	}
	if got := c.Stats().ShedWindow; got != 1 {
		t.Fatalf("ShedWindow = %d, want 1", got)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	c := New(Config{MaxInFlight: 1})
	release, v := c.AdmitRequest(1)
	if v != Admit {
		t.Fatalf("verdict = %v", v)
	}
	release()
	release() // must not double-free the window slot
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	r2, v := c.AdmitRequest(1)
	if v != Admit {
		t.Fatalf("verdict after release = %v", v)
	}
	r2()
}

// TestAdmitRequestAllocatesNothing: an admission and its release cost
// no allocation, with an in-flight window and without one. The gateway
// admits every request it conveys.
func TestAdmitRequestAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{{MaxInFlight: 4}, {}} {
		c := New(cfg)
		allocs := testing.AllocsPerRun(1000, func() {
			release, v := c.AdmitRequest(1)
			if v != Admit {
				t.Fatalf("verdict = %v", v)
			}
			release()
		})
		if allocs != 0 {
			t.Errorf("MaxInFlight %d: admit and release allocate %v objects, want 0", cfg.MaxInFlight, allocs)
		}
		if got := c.InFlight(); got != 0 {
			t.Errorf("MaxInFlight %d: InFlight = %d after every release", cfg.MaxInFlight, got)
		}
	}
}

func TestDrainShedsEverything(t *testing.T) {
	c := New(Config{MaxConns: 4})
	c.BeginDrain()
	if !c.Draining() {
		t.Fatal("not draining after BeginDrain")
	}
	if c.ReserveConn(nil) {
		t.Fatal("draining controller handed out a reservation")
	}
	if _, v := c.AdmitRequest(1); v != ShedDraining {
		t.Fatalf("request verdict = %v, want ShedDraining", v)
	}
	s := c.Stats()
	if s.ShedDraining != 1 || !s.Draining {
		t.Fatalf("stats = %+v", s)
	}
}

func TestClientTableEviction(t *testing.T) {
	c := New(Config{Rate: 1000})
	for i := uint64(0); i < 2*clientTableSize; i++ {
		release, v := c.AdmitRequest(i)
		if v != Admit {
			t.Fatalf("client %d verdict = %v", i, v)
		}
		release()
	}
	if got := c.TrackedClients(); got > clientTableSize {
		t.Fatalf("tracked clients = %d, want <= %d", got, clientTableSize)
	}
}

func TestConcurrentAdmissionIsBounded(t *testing.T) {
	const window = 8
	c := New(Config{MaxInFlight: window, AdmitWait: time.Millisecond})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		cur     int64
		highest int64
	)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, v := c.AdmitRequest(id)
				if v != Admit {
					continue
				}
				mu.Lock()
				cur++
				if cur > highest {
					highest = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				release()
			}
		}(uint64(g))
	}
	wg.Wait()
	if highest > window {
		t.Fatalf("observed %d concurrent admissions, window is %d", highest, window)
	}
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after all releases", c.InFlight())
	}
}
