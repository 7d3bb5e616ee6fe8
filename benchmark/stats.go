package main

import (
	"math"
	"sort"
	"time"
)

// batchOps is the batch length of the throughput estimator: throughput is
// the median rate over consecutive batches of this many operations, so a
// neighbour's burst on the host moves a few batches, not the number.
const batchOps = 50

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p ≤ 100) of v by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. It reads 0 on an empty input.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// of an even-sized input (0 on an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is the
// rule the acceptance criterion is stated in. It needs two samples.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(v)
	at := func(i int) float64 { // i-th of the three cut points, 1-based
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] when j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spreadShare is the run-to-run spread of a metric: the distance between
// the first and third quartile as a share of the median.
func spreadShare(v []float64) (float64, bool) {
	q1, q3, ok := quartiles(v)
	m := median(v)
	if !ok || m == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(m), true
}

// batchRates folds per-operation durations into one rate per consecutive
// batch of batchOps operations: work·batchOps ÷ the batch's wall time, in
// work units per second. A trailing partial batch is dropped; a run shorter
// than one batch yields the single whole-run rate.
func batchRates(durs []time.Duration, work float64) []float64 {
	var rates []float64
	for lo := 0; lo+batchOps <= len(durs); lo += batchOps {
		var wall time.Duration
		for _, d := range durs[lo : lo+batchOps] {
			wall += d
		}
		if wall > 0 {
			rates = append(rates, work*batchOps/wall.Seconds())
		}
	}
	if len(rates) == 0 && len(durs) > 0 {
		var wall time.Duration
		for _, d := range durs {
			wall += d
		}
		if wall > 0 {
			rates = append(rates, work*float64(len(durs))/wall.Seconds())
		}
	}
	return rates
}

// millis converts durations to float milliseconds.
func millis(durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// micros converts durations to float microseconds.
func micros(durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// mean returns the arithmetic mean in index order (so that two runs that
// saw the same values report the same bits), 0 on an empty input.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
