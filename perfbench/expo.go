package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"consumelocal/internal/obs"
)

// counterDelta is the growth of one series between two scrapes. A
// series absent from a scrape counts as zero there (labelled children
// appear on first use).
func counterDelta(before, after *obs.Exposition, series string) float64 {
	a, _ := after.Value(series)
	b, _ := before.Value(series)
	return a - b
}

// histDelta is the difference of one histogram family between two
// scrapes: the observations made in between.
type histDelta struct {
	upper  []float64 // finite bucket bounds, ascending
	counts []float64 // per bucket (not cumulative); the last is +Inf
	sum    float64
	count  float64
}

// histogramDelta extracts family's observations between two scrapes.
func histogramDelta(before, after *obs.Exposition, family string) histDelta {
	prefix := family + `_bucket{le="`
	type bucket struct {
		le    float64
		delta float64
	}
	var bs []bucket
	for series, v := range after.Samples {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		b, _ := before.Value(series)
		bs = append(bs, bucket{le, v - b})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	h := histDelta{
		sum:   counterDelta(before, after, family+"_sum"),
		count: counterDelta(before, after, family+"_count"),
	}
	prev := 0.0
	for _, b := range bs {
		// Buckets are cumulative in the exposition.
		h.counts = append(h.counts, b.delta-prev)
		prev = b.delta
		if !math.IsInf(b.le, 1) {
			h.upper = append(h.upper, b.le)
		}
	}
	return h
}

// remove takes one observation of value v back out of the delta: the
// benchmark knows, from its own clock, the duration of the long
// requests (snapshot streams, scrapes) that share the daemon's
// all-route latency histogram with the ingest batches.
func (h *histDelta) remove(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.counts) && h.counts[i] > 0 {
		h.counts[i]--
		h.count--
		h.sum -= v
	}
}

// quantile estimates the q-quantile with the estimator of
// obs.Histogram.Quantile (and PromQL histogram_quantile): linear
// interpolation inside the bucket holding the rank.
func (h *histDelta) quantile(q float64) float64 {
	var total float64
	for _, c := range h.counts {
		total += c
	}
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	cum := 0.0
	for i, c := range h.counts {
		if c <= 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i == len(h.upper) {
			return h.upper[len(h.upper)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.upper[i-1]
		}
		frac := (rank - prev) / c
		return lower + (h.upper[i]-lower)*math.Max(0, math.Min(1, frac))
	}
	return h.upper[len(h.upper)-1]
}
