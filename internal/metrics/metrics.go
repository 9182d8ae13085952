// Package metrics is what the experiment harness measures with: latency
// histograms with percentiles (the obs package's, under the names the
// harness has always used) and throughput windows, so every experiment
// reports its series the same way (see EXPERIMENTS.md).
package metrics

import (
	"time"

	"eternalgw/internal/obs"
)

// Histogram and Snapshot are the server path's own (obs); the aliases
// keep one implementation behind the harness's names.
type (
	Histogram = obs.Histogram
	Snapshot  = obs.Snapshot
)

// NewBounded creates a histogram retaining the most recent limit
// samples; see obs.NewBoundedHistogram.
func NewBounded(limit int) *Histogram { return obs.NewBoundedHistogram(limit) }

// Throughput measures operations per second over a wall-clock window.
type Throughput struct {
	start time.Time
	ops   int
}

// StartThroughput begins a measurement window.
func StartThroughput() *Throughput {
	return &Throughput{start: time.Now()}
}

// Add counts n completed operations.
func (t *Throughput) Add(n int) { t.ops += n }

// PerSecond reports the rate since the window began.
func (t *Throughput) PerSecond() float64 {
	elapsed := time.Since(t.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(t.ops) / elapsed
}
