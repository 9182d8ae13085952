package gospawn_test

import (
	"strings"
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/gospawn"
)

func TestGoSpawn(t *testing.T) {
	analysistest.Run(t, gospawn.Analyzer, "spawn")
}

// TestGoSpawnRegress replays the PR 4 unbounded-departure-spawn bug
// against the real replication types.
func TestGoSpawnRegress(t *testing.T) {
	analysistest.Run(t, gospawn.Analyzer, "spawnregress")
}

// TestGoSpawnMutation deletes the WaitGroup accounting from a
// known-good fan-out and proves the analyzer fires on exactly that
// change.
func TestGoSpawnMutation(t *testing.T) {
	const good = `package m

import "sync"

func fan(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(w func()) {
			defer wg.Done()
			w()
		}(w)
	}
	wg.Wait()
}
`
	if ds := analysistest.Diagnostics(t, gospawn.Analyzer, "gospawn_good", good); len(ds) != 0 {
		t.Fatalf("good snippet: unexpected diagnostics %v", ds)
	}

	mutant := strings.Replace(good, "wg.Add(1)\n\t\t", "", 1)
	mutant = strings.Replace(mutant, "defer wg.Done()\n\t\t\t", "", 1)
	ds := analysistest.Diagnostics(t, gospawn.Analyzer, "gospawn_mutant", mutant)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "provable lifecycle") {
		t.Fatalf("mutant (no accounting): want one lifecycle diagnostic, got %v", ds)
	}
}

// TestGoSpawnTeeth deletes the gateway's accounting of its accept loop,
// which has no other proof. (A connection's two goroutines have one
// each besides the gateway's WaitGroup: the replier receives its
// wake-ups, and the read loop's only channel use is a send on that
// one-slot channel.)
func TestGoSpawnTeeth(t *testing.T) {
	analysistest.Teeth(t, gospawn.Analyzer, "eternalgw/internal/core", "gateway.go", `provable lifecycle`,
		"\tg.wg.Add(1)\n\tgo g.acceptLoop()", "\tgo g.acceptLoop()",
		"acceptLoop() {\n\tdefer g.wg.Done()\n", "acceptLoop() {\n")
}
