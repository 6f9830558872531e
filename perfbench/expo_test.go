package main

import (
	"bytes"
	"math"
	"testing"

	"consumelocal/internal/obs"
)

func scrapeOf(t *testing.T, reg *obs.Registry) *obs.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestMetricsDeltaExtraction(t *testing.T) {
	reg := obs.NewRegistry()
	pushed := reg.Counter("test_sessions_total", "Sessions.")
	records := reg.CounterVec("test_records_total", "Records by type.", "type")
	lat := reg.Histogram("test_request_seconds", "Latency.", obs.LatencyBuckets)

	pushed.Add(100)
	lat.Observe(0.0005)
	lat.Observe(3)
	before := scrapeOf(t, reg)

	// The delta: what happens between the scrapes, including a labelled
	// child that did not exist at the first one.
	pushed.Add(250)
	records.With1("batch").Add(7)
	between := []float64{0.0004, 0.002, 0.002, 0.004, 0.02, 0.2, 0.2, 0.7, 4}
	ref := obs.NewRegistry().Histogram("ref_seconds", "Reference.", obs.LatencyBuckets)
	for _, v := range between {
		lat.Observe(v)
		ref.Observe(v)
	}
	after := scrapeOf(t, reg)

	if got := counterDelta(before, after, "test_sessions_total"); got != 250 {
		t.Fatalf("counter delta %g, want 250", got)
	}
	if got := counterDelta(before, after, `test_records_total{type="batch"}`); got != 7 {
		t.Fatalf("new labelled child delta %g, want 7", got)
	}
	h := histogramDelta(before, after, "test_request_seconds")
	if h.count != float64(len(between)) {
		t.Fatalf("histogram delta count %g, want %d", h.count, len(between))
	}
	sum := 0.0
	for _, v := range between {
		sum += v
	}
	if math.Abs(h.sum-sum) > 1e-9 {
		t.Fatalf("histogram delta sum %g, want %g", h.sum, sum)
	}
	if len(h.upper) != len(obs.LatencyBuckets) || len(h.counts) != len(obs.LatencyBuckets)+1 {
		t.Fatalf("got %d bounds and %d buckets", len(h.upper), len(h.counts))
	}
	for _, q := range []float64{0.5, 0.75, 0.9, 0.99} {
		if got, want := h.quantile(q), ref.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("q%g: delta %g, obs.Histogram over the same observations %g", q, got, want)
		}
	}

	// Taking the long requests back out leaves the short ones.
	h.remove(4)
	h.remove(0.7)
	if h.count != 7 || h.quantile(0.99) > 0.25 {
		t.Fatalf("after removal: count %g, p99 %g", h.count, h.quantile(0.99))
	}
	if math.Abs(h.sum-(sum-4.7)) > 1e-9 {
		t.Fatalf("after removal: sum %g", h.sum)
	}
}
