package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a quoted percentile: a
// timing is reported only at percentiles its sample count supports.
const minBeyond = 10

// quantile is one percentile of a timing, with the evidence behind it.
type quantile struct {
	Q      float64 // requested percentile, in (0, 1)
	Value  float64
	N      int // samples in the distribution
	Beyond int // samples strictly above the selected rank
}

// pick selects the nearest-rank q-th percentile of samples and refuses
// it when fewer than minBeyond samples lie beyond the selected rank: a
// p99 needs at least 1000 samples, a median at least 20. samples is
// sorted in place.
func pick(samples []float64, q float64) (quantile, error) {
	out := quantile{Q: q, N: len(samples)}
	if q <= 0 || q >= 1 {
		return out, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	if len(samples) == 0 {
		return out, fmt.Errorf("p%s: no samples", pctName(q))
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	out.Value = samples[rank]
	out.Beyond = len(samples) - 1 - rank
	if out.Beyond < minBeyond {
		return out, fmt.Errorf("p%s needs %d samples beyond it, have %d of %d",
			pctName(q), minBeyond, out.Beyond, len(samples))
	}
	return out, nil
}

// minSegments is the fewest segments a segmented percentile is the
// median of.
const minSegments = 5

// segmented is a percentile taken within each segment of a run (one
// ingest job, one replay) and summarised as the median over segments.
type segmented struct {
	Value    float64
	Segments int // segments that supported the percentile
	Samples  int // samples in those segments
}

// segmentQuantile takes the q-th percentile within every segment whose
// samples support it (minBeyond beyond the selected rank) and returns
// their median. A burst of machine noise then moves the figure only if
// it spans most segments, where a whole-run percentile moves with any
// burst longer than its tail. Segments too short to support q (a job
// cut by the end of the run) are left out.
func segmentQuantile(segs [][]float64, q float64) (segmented, error) {
	var out segmented
	var per []float64
	for _, s := range segs {
		v, err := pick(append([]float64(nil), s...), q)
		if err != nil {
			continue
		}
		per = append(per, v.Value)
		out.Segments++
		out.Samples += v.N
	}
	if out.Segments < minSegments {
		return out, fmt.Errorf("p%s: only %d of %d segments hold enough samples, need %d",
			pctName(q), out.Segments, len(segs), minSegments)
	}
	out.Value = median(per)
	return out, nil
}

// pctName renders 0.5 as "50" and 0.99 as "99".
func pctName(q float64) string {
	return fmt.Sprintf("%g", q*100)
}

// median returns the middle of xs (the mean of the middle two for an
// even count) without the sample floor pick enforces: it summarises
// repeated whole-run measurements such as set-up times, not a latency
// distribution. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// maxOf returns the largest element of xs, or 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
