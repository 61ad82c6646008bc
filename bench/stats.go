package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation of a timed phase: when it finished,
// relative to the start of the phase, and how long it took.
type sample struct {
	end time.Duration
	lat time.Duration
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// reportable are the percentiles the benchmark ever prints.
var reportable = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest reportable percentile that still
// has at least ten of n samples beyond it, or 0 when even the median does
// not (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // the slack absorbs 100-99.9 not being exactly 0.1
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// summary is what a timed phase reports. Throughput and the two bounded
// latency percentiles are medians over equal time slices of the phase, so
// one disturbed second (a neighbour's burst, a collection cycle) moves
// one slice and not the reported value. p99 and its sample count are over
// the whole phase and informational.
type summary struct {
	opsPerS, p50ms, p95ms, p99ms float64
	n                            int
	sliceOps                     []float64 // throughput of each slice, in time order
}

const timeSlices = 5

func summarize(samples []sample, window time.Duration) summary {
	slice := window / timeSlices
	lats := make([][]float64, timeSlices)
	ends := make([]time.Duration, timeSlices) // when each slice's last op finished
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		ms := millis(s.lat)
		all = append(all, ms)
		k := min(int(s.end/slice), timeSlices-1) // the op in flight at the deadline joins the last slice
		lats[k] = append(lats[k], ms)
		ends[k] = s.end
	}
	var ops, p50, p95 []float64
	prevEnd := time.Duration(0)
	for k, l := range lats {
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		// A slice runs from the end of the previous slice's last op to the
		// end of its own, so no op is split between two slices.
		ops = append(ops, float64(len(l))/(ends[k]-prevEnd).Seconds())
		prevEnd = ends[k]
		p50 = append(p50, percentile(l, 50))
		p95 = append(p95, percentile(l, 95))
	}
	sort.Float64s(all)
	return summary{
		opsPerS: median(ops), p50ms: median(p50), p95ms: median(p95),
		p99ms: percentile(all, 99), n: len(all), sliceOps: ops,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
