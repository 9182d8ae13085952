package syncextra_test

import (
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/syncextra"
)

func TestSyncExtra(t *testing.T) {
	analysistest.Run(t, syncextra.Analyzer, "syncx")
}

// TestSyncExtraTeeth turns admission's admitted counter back into a plain
// uint64 under the function-style atomics.
func TestSyncExtraTeeth(t *testing.T) {
	analysistest.Teeth(t, syncextra.Analyzer, "eternalgw/internal/admission", "admission.go", `function-style sync/atomic call AddUint64`,
		"\tadmitted         atomic.Uint64", "\tadmitted         uint64",
		"c.admitted.Load()", "atomic.LoadUint64(&c.admitted)",
		"c.admitted.Add(1)", "atomic.AddUint64(&c.admitted, 1)")
}
