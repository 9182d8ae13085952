package completedno_test

import (
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/completedno"
)

func TestCompletedNo(t *testing.T) {
	analysistest.Run(t, completedno.Analyzer, "completed")
}

// TestCompletedNoTeeth answers the gateway's no-quorum failure with a
// bare completion literal: a 0 there is a COMPLETED_YES shed reply.
func TestCompletedNoTeeth(t *testing.T) {
	analysistest.Teeth(t, completedno.Analyzer, "eternalgw/internal/core", "gateway.go", `literal`,
		"giop.RepoTransient, minorNoQuorum, giop.CompletedNo)", "giop.RepoTransient, minorNoQuorum, 0)")
}
