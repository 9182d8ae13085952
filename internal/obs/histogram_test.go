package obs

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	if s := NewBoundedHistogram(8).Snapshot(); s != (Snapshot{}) {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestHistogramStatistics: a full window's quantiles are over its newest
// samples alone; its count and sum are over every sample recorded.
func TestHistogramStatistics(t *testing.T) {
	h := NewBoundedHistogram(100)
	for i := 1; i <= 200; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 200 || s.Sum != 20100*time.Millisecond {
		t.Fatalf("count %d sum %v, want 200 samples summing to 20.1s", s.Count, s.Sum)
	}
	if s.Min != 101*time.Millisecond || s.Max != 200*time.Millisecond || s.P50 != 150*time.Millisecond || s.P99 != 199*time.Millisecond {
		t.Fatalf("window [%v, %v] p50 %v p99 %v, want [101ms, 200ms] 150ms 199ms", s.Min, s.Max, s.P50, s.P99)
	}
}

// TestPercentileIsNearestRank: the q-th percentile of n samples is the
// smallest sample at or below which at least q % of them lie, the
// ceil(q/100·n)-th in sorted order.
func TestPercentileIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int // 1-based rank
	}{
		{1, 50, 1}, {1, 99, 1},
		{2, 50, 1}, {2, 51, 2},
		{4, 50, 2}, {4, 75, 3}, {4, 76, 4},
		{6, 50, 3}, {6, 90, 6}, {6, 99, 6},
		{10, 90, 9}, {10, 91, 10},
		{100, 50, 50}, {100, 90, 90}, {100, 99, 99}, {100, 100, 100},
		{1000, 99, 990}, {1000, 99.9, 999},
	} {
		if got := rankFor(c.q, c.n) + 1; got != c.want {
			t.Errorf("p%v of %d samples is sample %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestHistogramInterleavedRecordAndQuery(t *testing.T) {
	h := NewBoundedHistogram(8)
	h.Record(3 * time.Millisecond)
	if h.Snapshot().Max != 3*time.Millisecond {
		t.Fatal("max wrong")
	}
	h.Record(time.Millisecond) // must re-sort after new samples
	if h.Snapshot().Min != time.Millisecond {
		t.Fatal("min wrong after second record")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewBoundedHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	want := Snapshot{
		Count: 100,
		Sum:   5050 * time.Millisecond,
		Min:   time.Millisecond,
		Max:   100 * time.Millisecond,
		P50:   50 * time.Millisecond,
		P90:   90 * time.Millisecond,
		P99:   99 * time.Millisecond,
	}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
}

func TestBoundedHistogramSlidesWindow(t *testing.T) {
	h := NewBoundedHistogram(3)
	for i := 1; i <= 5; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	// Window holds the 3 most recent samples: 3ms, 4ms, 5ms.
	if s := h.Snapshot(); s.Min != 3*time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("window = [%v, %v]", s.Min, s.Max)
	}
	// Recording after a query must displace the oldest, not a sorted slot.
	h.Record(10 * time.Millisecond) // displaces 3ms
	if s := h.Snapshot(); s.Min != 4*time.Millisecond || s.Max != 10*time.Millisecond {
		t.Fatalf("window after displace = [%v, %v]", s.Min, s.Max)
	}
}

// TestQuickPercentileMonotone property: a snapshot's percentiles are
// monotone and bounded by its min and max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewBoundedHistogram(len(samples))
		for _, s := range samples {
			h.Record(time.Duration(s))
		}
		s := h.Snapshot()
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountMatches property: a snapshot counts every sample
// recorded, whatever its window holds.
func TestQuickCountMatches(t *testing.T) {
	f := func(n, limit uint8) bool {
		h := NewBoundedHistogram(int(limit))
		for i := 0; i < int(n); i++ {
			h.Record(time.Duration(i))
		}
		return h.Snapshot().Count == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
