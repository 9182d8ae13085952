package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {500000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsPercentileAndCount(t *testing.T) {
	got := summarize(ramp(1000))
	if got.N != 1000 || got.P50 != 500 || got.TailAt != 99 || got.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", got)
	}
	// 150 samples support only p90: the 15 beyond it are at least ten.
	got = summarize(ramp(150))
	if got.TailAt != 90 || got.Tail != 135 {
		t.Errorf("summarize(1..150) = %+v, want the tail at p90 = 135", got)
	}
	// Too few samples for any tail: the median stands in, flagged by
	// TailAt 0, so the metric is never absent.
	got = summarize(ramp(9))
	if got.TailAt != 0 || got.Tail != got.P50 || got.P50 != 5 {
		t.Errorf("summarize(1..9) = %+v, want tail = p50 = 5 at percentile 0", got)
	}
}

func TestSteadyIgnoresOneStall(t *testing.T) {
	// 20000 samples of 100 with one burst of 300 samples at 50000, as a
	// stolen virtual CPU produces: over the whole window the p99 is the
	// burst; slice by slice it is one slice's tail.
	xs := make([]int64, 20000)
	for i := range xs {
		xs[i] = 100
	}
	for i := 7000; i < 7300; i++ {
		xs[i] = 50000
	}
	if whole := summarize(append([]int64(nil), xs...)); whole.Tail != 50000 {
		t.Fatalf("whole-window p99 = %v, want the burst", whole.Tail)
	}
	got := steady(xs)
	if got.N != 20000 || got.P50 != 100 || got.Tail != 100 || got.TailAt != 99 {
		t.Errorf("steady = %+v, want p50 = p99 = 100 over n=20000", got)
	}
	// A tail that is slow in every slice does move it.
	for i := range xs {
		xs[i] = 100
		if i%50 == 0 {
			xs[i] = 900
		}
	}
	if got := steady(xs); got.Tail != 900 {
		t.Errorf("steady tail = %v, want 900 when 2%% of every slice is slow", got.Tail)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs, from CPython 3.11.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{61.2, 64.8, 66.7, 64.1, 67.5, 63.9, 65.0, 70.3, 62.2, 66.0}, 63.475, 66.9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestRatioOfStatsDeltas(t *testing.T) {
	// Counter deltas per operation, as the per-layer metrics form them:
	// 3 active replicas answer each of 1000 operations, the gateway
	// discards the 2 redundant copies of each.
	before, after := uint64(500), uint64(2500)
	if got := ratio(float64(after-before), 1000); got != 2 {
		t.Errorf("dup responses per op = %v, want 2", got)
	}
	// A layer that did nothing in the window divides by zero operations;
	// it must read as idle, not NaN.
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(0,0) = %v, want 0", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5,0) = %v, want 0", got)
	}
}

func TestSteadyRatesReadTheTypicalInterval(t *testing.T) {
	// Progress sampled every 500 ms: 1000 ops and 100 ms of CPU per
	// interval, except two intervals a stall emptied and one nothing
	// completed in.
	const step = int64(500e6)
	var points []progress
	var acked uint64
	var cpu int64
	for i := 0; i <= 20; i++ {
		points = append(points, progress{at: int64(i) * step, acked: acked, cpu: time.Duration(cpu)})
		switch i {
		case 4, 11:
			acked += 50
			cpu += 100e6
		case 15:
			cpu += 100e6
		default:
			acked += 1000
			cpu += 100e6
		}
	}
	ops, cost, ok := steadyRates(points, 0, 20*step)
	if !ok || ops != 2000 || cost != 100 {
		t.Errorf("steadyRates = %v op/s, %v us/op, %v; want 2000, 100, true", ops, cost, ok)
	}
	// Only the samples inside the phase count, and too few are no basis.
	if ops, _, ok := steadyRates(points, 12*step, 20*step); !ok || ops != 2000 {
		t.Errorf("steadyRates over the last 4 s = %v, %v; want 2000", ops, ok)
	}
	if _, _, ok := steadyRates(points, 0, 3*step); ok {
		t.Error("steadyRates accepted a phase of three intervals")
	}
}

func TestMidmeanDropsTheOuterQuartersAndMovesSmoothly(t *testing.T) {
	if got := midmean([]float64{1, 2, 3, 4, 5, 6, 7, 1000}); got != 4.5 {
		t.Errorf("midmean with an outlier = %v, want 4.5 (mean of 3..6)", got)
	}
	// Slice tails that read one side or the other of a cliff: the median
	// jumps when the majority changes, the midmean moves with the share.
	cliff := func(high int) []float64 {
		xs := make([]float64, 12)
		for i := range xs {
			xs[i] = 900
			if i < high {
				xs[i] = 1600
			}
		}
		return xs
	}
	if a, b := median(cliff(5)), median(cliff(7)); a != 900 || b != 1600 {
		t.Fatalf("median across the cliff = %v, %v; the test's premise is that it jumps", a, b)
	}
	a, b := midmean(cliff(5)), midmean(cliff(7))
	if !(a > 900 && a < b && b < 1600) {
		t.Errorf("midmean across the cliff = %v, %v; want both strictly between the sides, rising", a, b)
	}
	if got := midmean([]float64{3, 1, 2}); got != 2 {
		t.Errorf("midmean of three = %v, want their median", got)
	}
}
