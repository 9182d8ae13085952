package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Histogram collects duration samples and reports percentiles; the
// gateway's request-latency summary and every experiment's latency
// series (EXPERIMENTS.md) are one. The zero value is ready to use and
// retains every sample (what the experiment harness wants). A bounded
// histogram (NewBoundedHistogram) retains only the most recent samples,
// so a long-running server can keep one on a hot path without growing
// without bound.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	limit   int // 0 = unbounded
	next    int // ring cursor when bounded
	scratch []time.Duration
}

// NewBoundedHistogram creates a histogram retaining the most recent
// limit samples (a sliding window); limit <= 0 means unbounded.
func NewBoundedHistogram(limit int) *Histogram {
	if limit < 0 {
		limit = 0
	}
	return &Histogram{limit: limit}
}

// Record adds one sample, displacing the oldest once a bounded
// histogram's window is full.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.limit > 0 && len(h.samples) == h.limit {
		h.samples[h.next] = d
		h.next = (h.next + 1) % h.limit
	} else {
		h.samples = append(h.samples, d)
	}
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// sortedLocked returns the samples in ascending order. Callers hold mu.
// Unbounded histograms sort in place; bounded ones sort a scratch copy
// so the ring's insertion order survives.
func (h *Histogram) sortedLocked() []time.Duration {
	if h.limit == 0 {
		if !h.sorted {
			sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
			h.sorted = true
		}
		return h.samples
	}
	if !h.sorted {
		h.scratch = append(h.scratch[:0], h.samples...)
		sort.Slice(h.scratch, func(i, j int) bool { return h.scratch[i] < h.scratch[j] })
		h.sorted = true
	}
	return h.scratch
}

// Percentile returns the q-th percentile (0 < q <= 100) by
// nearest-rank; zero if empty.
func (h *Histogram) Percentile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := h.sortedLocked()
	return s[rankFor(q, len(s))]
}

// Mean returns the average sample; zero if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Min returns the smallest sample; zero if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sortedLocked()[0]
}

// Max returns the largest sample; zero if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := h.sortedLocked()
	return s[len(s)-1]
}

// Snapshot is a single-lock summary of a histogram: every quantity a
// renderer needs, captured in one mutex acquisition so exporters (the
// registry's /metrics endpoint) do not take the histogram lock once per
// percentile.
type Snapshot struct {
	Count int
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot captures count, sum, mean, min, max and the fixed percentiles
// under one lock acquisition. An empty histogram yields the zero value.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return Snapshot{}
	}
	sorted := h.sortedLocked()
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	return Snapshot{
		Count: n,
		Sum:   sum,
		Mean:  sum / time.Duration(n),
		Min:   sorted[0],
		Max:   sorted[n-1],
		P50:   sorted[rankFor(50, n)],
		P90:   sorted[rankFor(90, n)],
		P99:   sorted[rankFor(99, n)],
	}
}

// rankFor converts a percentile to a nearest-rank index into n sorted
// samples.
func rankFor(q float64, n int) int {
	rank := int(q/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// Summary renders "mean / p50 / p99 / max" for experiment tables.
func (h *Histogram) Summary() string {
	s := h.Snapshot()
	return fmt.Sprintf("mean=%v p50=%v p99=%v max=%v",
		s.Mean.Round(time.Microsecond),
		s.P50.Round(time.Microsecond),
		s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
