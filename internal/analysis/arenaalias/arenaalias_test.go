package arenaalias_test

import (
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/arenaalias"
)

func TestArenaAlias(t *testing.T) {
	analysistest.Run(t, arenaalias.Analyzer, "arena")
}

// TestReceivePathRegressions replays the PR 3 zero-copy receive-path
// footguns against the real replication and totem types.
func TestReceivePathRegressions(t *testing.T) {
	analysistest.Run(t, arenaalias.Analyzer, "arenaregress")
}

// TestArenaAliasTeeth writes into the delivered bytes in replication's
// invocation handler.
func TestArenaAliasTeeth(t *testing.T) {
	analysistest.Teeth(t, arenaalias.Analyzer, "eternalgw/internal/replication", "loop.go", `write into delivery-arena memory`,
		"\tmsg := hv.Message()\n", "\tmsg := hv.Message()\n\tmsg.Payload[0] = 0\n")
}
