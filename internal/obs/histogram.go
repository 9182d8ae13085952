package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram keeps a sliding window of the most recent duration samples
// and summarises them by Snapshot, beside the count and sum of every
// sample ever recorded; the gateway's request-latency summary is one. The
// window bounds its memory, so a long-running server can keep one on a
// hot path.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	samples []time.Duration
	sorted  bool
	limit   int
	next    int // ring cursor once the window is full
	scratch []time.Duration
}

// NewBoundedHistogram creates a histogram retaining the most recent
// limit samples (at least one).
func NewBoundedHistogram(limit int) *Histogram {
	return &Histogram{limit: max(limit, 1)}
}

// Record adds one sample, displacing the oldest once the window is full.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if len(h.samples) == h.limit {
		h.samples[h.next] = d
		h.next = (h.next + 1) % h.limit
	} else {
		h.samples = append(h.samples, d)
	}
	h.sorted = false
}

// sortedLocked returns the samples in ascending order: a sorted scratch
// copy, so the ring's insertion order survives. Callers hold mu.
func (h *Histogram) sortedLocked() []time.Duration {
	if !h.sorted {
		h.scratch = append(h.scratch[:0], h.samples...)
		sort.Slice(h.scratch, func(i, j int) bool { return h.scratch[i] < h.scratch[j] })
		h.sorted = true
	}
	return h.scratch
}

// Snapshot is a single-lock summary of a histogram: every quantity a
// renderer needs, captured in one mutex acquisition so exporters (the
// registry's /metrics endpoint) do not take the histogram lock once per
// percentile. Count and Sum cover every sample recorded, so a rate over
// them holds on a busy server; the rest cover the window.
type Snapshot struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot captures count, sum, min, max and the fixed percentiles under
// one lock acquisition. An empty histogram yields the zero value.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return Snapshot{}
	}
	sorted := h.sortedLocked()
	return Snapshot{
		Count: h.count,
		Sum:   h.sum,
		Min:   sorted[0],
		Max:   sorted[n-1],
		P50:   sorted[rankFor(50, n)],
		P90:   sorted[rankFor(90, n)],
		P99:   sorted[rankFor(99, n)],
	}
}

// rankFor converts a percentile to a nearest-rank index into n sorted
// samples: the ceil(q/100·n)-th sample is the smallest at or below which
// at least q % of them lie. q·n is taken before the division, so a whole
// rank such as 90·100/100 is exact and not rounded up past itself.
func rankFor(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n)/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}
