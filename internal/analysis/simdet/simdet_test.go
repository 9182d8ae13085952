package simdet_test

import (
	"strings"
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/simdet"
)

func TestSimdet(t *testing.T) {
	analysistest.Run(t, simdet.Analyzer, "sim")
}

// TestSimdetMutation breaks the determinism invariant in a known-good
// snippet — an injected clock replaced by the wall clock — and proves
// the analyzer fires on exactly that change.
func TestSimdetMutation(t *testing.T) {
	const good = `package m

import "time"

type clock interface {
	Now() time.Time
}

// gwlint:simroot
func step(c clock) time.Time {
	return c.Now()
}
`
	if ds := analysistest.Diagnostics(t, simdet.Analyzer, "simdet_good", good); len(ds) != 0 {
		t.Fatalf("good snippet: unexpected diagnostics %v", ds)
	}

	mutant := strings.Replace(good, "return c.Now()", "return time.Now()", 1)
	ds := analysistest.Diagnostics(t, simdet.Analyzer, "simdet_mutant", mutant)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "time.Now") {
		t.Fatalf("mutant (wall clock): want one time.Now diagnostic, got %v", ds)
	}
}

// TestSimdetMutationClockArgument is the shape internal/totem's core
// has: the time is an argument of the rooted entry points, kept for the
// step, and the handlers below them never ask the runtime for it. A
// time.Now() put back into a handler that two entry points reach fires
// exactly one finding.
func TestSimdetMutationClockArgument(t *testing.T) {
	const good = `package m

import "time"

type Core struct {
	now      time.Time
	failAt   time.Time
	inFlight map[uint64][]byte
}

// gwlint:simroot
func (c *Core) Receive(now time.Time, datagram []byte) {
	c.now = now
	c.handle(datagram)
}

// gwlint:simroot
func (c *Core) Tick(now time.Time) {
	c.now = now
	if !c.failAt.After(now) {
		c.handle(nil)
	}
}

func (c *Core) handle(datagram []byte) {
	c.failAt = c.now.Add(time.Second)
	c.inFlight[uint64(len(datagram))] = datagram
}
`
	if ds := analysistest.Diagnostics(t, simdet.Analyzer, "simdet_core_good", good); len(ds) != 0 {
		t.Fatalf("good snippet: unexpected diagnostics %v", ds)
	}

	mutant := strings.Replace(good, "c.failAt = c.now.Add(", "c.failAt = time.Now().Add(", 1)
	ds := analysistest.Diagnostics(t, simdet.Analyzer, "simdet_core_mutant", mutant)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "time.Now") || !strings.Contains(ds[0].Message, "handle") {
		t.Fatalf("mutant (wall clock in a handler): want one time.Now diagnostic naming the path through handle, got %v", ds)
	}
}
