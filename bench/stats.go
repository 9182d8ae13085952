package main

import (
	"math"
	"sort"
)

// tailLadder is the set of tail percentiles a timing may be reported
// at, highest first. A window reports the highest one that still has
// tailBeyond samples above it, so a short run degrades to a lower
// percentile instead of reporting a maximum as a "p99".
var tailLadder = []float64{99, 95, 90, 75}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// timing is one latency distribution reduced to what the benchmark
// reports: the median, a tail percentile and which one it is, and the
// sample count both were taken from.
type timing struct {
	N      int
	P50    float64 // same unit as the samples
	Tail   float64
	TailAt float64 // percentile Tail was read at (99 unless N is small); 0 if N supports none
}

// tailPercentile returns the highest ladder percentile with at least
// tailBeyond of n samples beyond it, or 0 when n supports none.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return p
		}
	}
	return 0
}

// percentileSorted reads percentile p (0..100) from ascending samples by
// nearest rank.
func percentileSorted(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// summarize sorts samples in place and reduces them to a timing. A
// window too short for any ladder percentile reports its median as the
// tail too (TailAt 0), so the metric is never absent.
func summarize(samples []int64) timing {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	t := timing{N: len(samples)}
	if t.N == 0 {
		return t
	}
	t.P50 = percentileSorted(samples, 50)
	t.TailAt = tailPercentile(t.N)
	if t.TailAt > 0 {
		t.Tail = percentileSorted(samples, t.TailAt)
	} else {
		t.Tail = t.P50
	}
	return t
}

const (
	// sliceMin is the least number of samples in a slice of steady: enough
	// for a p99 with tailBeyond samples beyond it.
	sliceMin  = 1000
	sliceMost = 30
)

// steady reduces a window's samples, kept in completion order, to a
// timing that a rare stall of the machine cannot move. The sandbox's
// hypervisor takes the virtual CPUs away for tens of milliseconds a few
// times a minute; every request in flight then lands in the window's
// tail, and a p99 over the whole window reads the stalls, not the
// system. So the samples are cut into consecutive slices of at least
// sliceMin, each slice is summarized on its own, and the timing reported
// is the midmean over slices of their medians and of their tails. A
// change that slows the tail of most slices still moves it; a stall in a
// few slices does not. Sorts within samples.
func steady(samples []int64) timing {
	slices := len(samples) / sliceMin
	if slices > sliceMost {
		slices = sliceMost
	}
	if slices < 2 {
		return summarize(samples)
	}
	per := len(samples) / slices
	p50s, tails := make([]float64, slices), make([]float64, slices)
	var t timing
	for i := 0; i < slices; i++ {
		end := (i + 1) * per
		if i == slices-1 {
			end = len(samples)
		}
		t = summarize(samples[i*per : end])
		p50s[i], tails[i] = t.P50, t.Tail
	}
	return timing{N: len(samples), P50: midmean(p50s), Tail: midmean(tails), TailAt: t.TailAt}
}

// midmean is the mean of the middle half of xs (the quarter lowest and the
// quarter highest values dropped). Across slices it is as deaf to a few
// stalled slices as the median, but moves smoothly where the median
// jumps: a percentile that sits on a cliff of the distribution reads one
// side or the other slice by slice, and the median of such readings flips
// between the two from run to run.
func midmean(xs []float64) float64 {
	if len(xs) < 4 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	drop := len(s) / 4
	sum := 0.0
	for _, x := range s[drop : len(s)-drop] {
		sum += x
	}
	return sum / float64(len(s)-2*drop)
}

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method) does:
// the repeatability criterion is stated in those terms, so compare must
// compute the same numbers. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // after the clamp, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// ratio is a counter delta per unit of work; a zero denominator yields 0
// rather than NaN so an idle layer prints as idle.
func ratio(delta, per float64) float64 {
	if per == 0 {
		return 0
	}
	return delta / per
}
