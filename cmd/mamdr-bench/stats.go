package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule on a sorted copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the middle pair for even n, so two runs of the
// same work do not flip between neighbours.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns (q1, median, q3) the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver uses for its spread check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sample is one timed operation of a load window: when it was due (or
// started, closed loop) relative to the window start, how long the
// caller waited for the answer from that moment, and whether the answer
// was correct.
type sample struct {
	at  time.Duration
	lat time.Duration
	ok  bool
}

// latenciesMS returns the latencies of the correct samples in ms.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

// tailPercentile is the percentile behind op_tail_ms on the serving
// workloads. On this two-core VM the per-slice p99 of serve-live swung by
// more than the 25% a bound may be between runs of one commit; the p95
// moved a third as much and still sits inside the requests a publish
// slows, so it is the tail that can carry a bound.
const tailPercentile = 95

// perSlice splits the window into k equal slices by sample time and
// returns, for every slice that has correct samples, their median
// latency, their pct-th percentile latency (ms) and their number.
func perSlice(ss []sample, window time.Duration, k int, pct float64) (p50s, tails, counts []float64) {
	if window <= 0 || k < 1 {
		return nil, nil, nil
	}
	buckets := make([][]float64, k)
	for _, s := range ss {
		if !s.ok {
			continue
		}
		i := int(int64(s.at) * int64(k) / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		buckets[i] = append(buckets[i], float64(s.lat)/float64(time.Millisecond))
	}
	for _, b := range buckets {
		if len(b) > 0 {
			p50s = append(p50s, median(b))
			tails = append(tails, percentile(b, pct))
			counts = append(counts, float64(len(b)))
		}
	}
	return p50s, tails, counts
}

// slicedTail is the median of the per-slice pct-th percentile latencies
// (ms) over k slices, so one stall cannot own the tail number.
func slicedTail(ss []sample, window time.Duration, k int, pct float64) float64 {
	_, tails, _ := perSlice(ss, window, k, pct)
	return median(tails)
}

// undisturbedSlices is how many slices a saturated closed loop's window
// is cut into: one second each at the pinned 15 s.
const undisturbedSlices = 15

// undisturbed is what a closed loop that keeps every core busy reports.
// Its latencies and its rate follow the host's slow phases as a fit's
// wall time does, so it gets the same treatment as the fits: the better
// quartile over one-second slices is what the server does undisturbed.
// (Not for serve-live, whose slices differ by design: the ones holding a
// publish are the tail it exists to show.)
func undisturbed(ss []sample, window time.Duration) (opMS, tailMS, perSecond float64) {
	p50s, tails, counts := perSlice(ss, window, undisturbedSlices, tailPercentile)
	slice := window.Seconds() / undisturbedSlices
	return percentile(p50s, 25), percentile(tails, 25), percentile(counts, 75) / slice
}
