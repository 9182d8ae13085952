package obs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramStatistics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("min = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestHistogramInterleavedRecordAndQuery(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Millisecond)
	if h.Max() != 3*time.Millisecond {
		t.Fatal("max wrong")
	}
	h.Record(time.Millisecond) // must re-sort after new samples
	if h.Min() != time.Millisecond {
		t.Fatal("min wrong after second record")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	want := Snapshot{
		Count: 100,
		Sum:   5050 * time.Millisecond,
		Mean:  50500 * time.Microsecond,
		Min:   time.Millisecond,
		Max:   100 * time.Millisecond,
		P50:   50 * time.Millisecond,
		P90:   90 * time.Millisecond,
		P99:   99 * time.Millisecond,
	}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	// Snapshot must agree with the per-quantity accessors.
	if s.P50 != h.Percentile(50) || s.Mean != h.Mean() || s.Max != h.Max() {
		t.Fatal("snapshot disagrees with accessors")
	}
}

func TestSummaryFormat(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	s := h.Summary()
	for _, part := range []string{"mean=", "p50=", "p99=", "max="} {
		if !strings.Contains(s, part) {
			t.Fatalf("summary %q missing %q", s, part)
		}
	}
}

func TestBoundedHistogramSlidesWindow(t *testing.T) {
	h := NewBoundedHistogram(3)
	for i := 1; i <= 5; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	// Window holds the 3 most recent samples: 3ms, 4ms, 5ms.
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 3*time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Fatalf("window = [%v, %v]", h.Min(), h.Max())
	}
	// Recording after a query must displace the oldest, not a sorted slot.
	h.Record(10 * time.Millisecond) // displaces 3ms
	if h.Min() != 4*time.Millisecond || h.Max() != 10*time.Millisecond {
		t.Fatalf("window after displace = [%v, %v]", h.Min(), h.Max())
	}
}

// TestQuickPercentileMonotone property: percentiles are monotone in q
// and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Record(time.Duration(s))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{1, 25, 50, 75, 90, 99, 100} {
			p := h.Percentile(q)
			if p < prev || p < h.Min() || p > h.Max() {
				return false
			}
			prev = p
		}
		return h.Mean() >= h.Min() && h.Mean() <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountMatches property: Count equals the number of samples.
func TestQuickCountMatches(t *testing.T) {
	f := func(n uint8) bool {
		var h Histogram
		for i := 0; i < int(n); i++ {
			h.Record(time.Duration(i))
		}
		return h.Count() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
