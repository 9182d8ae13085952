package metricname_test

import (
	"testing"

	"eternalgw/internal/analysis/analysistest"
	"eternalgw/internal/analysis/metricname"
)

func TestMetricName(t *testing.T) {
	analysistest.Run(t, metricname.Analyzer, "metric")
}

// TestMetricNameTeeth drops the eternalgw_ prefix from a trace counter.
func TestMetricNameTeeth(t *testing.T) {
	analysistest.Teeth(t, metricname.Analyzer, "eternalgw/internal/obs", "trace.go", `eternalgw_`,
		`"eternalgw_trace_started_total"`, `"trace_started_total"`)
}
