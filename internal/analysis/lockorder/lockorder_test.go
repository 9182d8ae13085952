package lockorder_test

import (
	"strings"
	"testing"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "locks")
}

// TestLockOrderNodeWait: a lock the consumer of a totem node takes, held
// across a wait on that node, is a cycle through the protocol goroutine,
// and a consumer that waits on its own node is reported where it waits.
func TestLockOrderNodeWait(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "nodewait")
}

// TestLockOrderEventLoop: a function marked gwlint:eventloop, and all it
// reaches, must not block; the report names the path from the root.
func TestLockOrderEventLoop(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "eventloop")
}

// TestLockOrderPerPackageSilentOnCrossPackage asserts the per-package
// pass does not guess about cross-package callees: globallock holds a
// lock across a call into obs, and only the global check may judge it.
func TestLockOrderPerPackageSilentOnCrossPackage(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "globallock")
}

// TestLockOrderGlobalStitchesStoredCallbacks runs the whole-module check
// over the real obs package plus the globallock corpus: obs's
// WritePrometheus transitively invokes stored metric callbacks, and
// globallock calls it under a lock, so the stitched summaries must
// produce the callback-under-lock hazard the per-package passes cannot
// see.
func TestLockOrderGlobalStitchesStoredCallbacks(t *testing.T) {
	l := analysistest.Loader(t)
	obsPkg := analysistest.ModulePackage(t, "eternalgw/internal/obs")
	corpus := analysistest.Check(t, "globallock")

	diags := lockorder.Global(l, []*analysis.Package{obsPkg, corpus})
	var hit bool
	for _, d := range diags {
		if strings.Contains(d.Message, "WritePrometheus invokes a stored callback") &&
			strings.Contains(d.Message, "exporter.mu is held") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("global check: want a stored-callback hazard for scrapeLocked → WritePrometheus, got %v", diags)
	}
}

// TestLockOrderMutation flips the acquisition order in one of two
// consistently ordered functions and proves the cycle fires on exactly
// that change.
func TestLockOrderMutation(t *testing.T) {
	const good = `package m

import "sync"

type s struct {
	a sync.Mutex
	b sync.Mutex
}

func f(x *s) {
	x.a.Lock()
	defer x.a.Unlock()
	x.b.Lock()
	defer x.b.Unlock()
}

func g(x *s) {
	x.a.Lock()
	defer x.a.Unlock()
	x.b.Lock()
	defer x.b.Unlock()
}
`
	if ds := analysistest.Diagnostics(t, lockorder.Analyzer, "lockorder_good", good); len(ds) != 0 {
		t.Fatalf("good snippet: unexpected diagnostics %v", ds)
	}

	mutant := strings.Replace(good, `func g(x *s) {
	x.a.Lock()
	defer x.a.Unlock()
	x.b.Lock()
	defer x.b.Unlock()
}`, `func g(x *s) {
	x.b.Lock()
	defer x.b.Unlock()
	x.a.Lock()
	defer x.a.Unlock()
}`, 1)
	ds := analysistest.Diagnostics(t, lockorder.Analyzer, "lockorder_mutant", mutant)
	var cycles int
	for _, d := range ds {
		if strings.Contains(d.Message, "lock order cycle") {
			cycles++
		}
	}
	if cycles == 0 {
		t.Fatalf("mutant (reversed order): want a lock order cycle diagnostic, got %v", ds)
	}
}

// TestLockOrderTeeth sleeps in totem's follower forward hook, which runs
// on the protocol goroutine.
func TestLockOrderTeeth(t *testing.T) {
	analysistest.Teeth(t, lockorder.Analyzer, "eternalgw/internal/totem", "leader.go", `time.Sleep on the protocol goroutine \(reachable via forwardPending\)`,
		"forwardPending() {\n", "forwardPending() {\n\ttime.Sleep(0)\n")
}

// TestLockOrderTeethGatewayCompletion writes to the client's socket from
// the gateway's completion hook, which runs on the protocol goroutine: in
// it, and in a helper it calls.
func TestLockOrderTeethGatewayCompletion(t *testing.T) {
	analysistest.Teeth(t, lockorder.Analyzer, "eternalgw/internal/core", "gateway.go", `socket write on the protocol goroutine \(reachable via Complete\)`,
		"\tcc := r.cc\n\tcc.mu.Lock()\n", "\tcc := r.cc\n\t_, _ = cc.nc.Write(nil)\n\tcc.mu.Lock()\n")
	analysistest.Teeth(t, lockorder.Analyzer, "eternalgw/internal/core", "gateway.go", `socket write on the protocol goroutine \(reachable via Complete → write\)`,
		"\tcc := r.cc\n\tcc.mu.Lock()\n", "\tcc := r.cc\n\tcc.write(giop.EncodeCloseConnection(cdr.BigEndian))\n\tcc.mu.Lock()\n")
}
