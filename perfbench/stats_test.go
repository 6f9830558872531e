package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so pick must sort
	}
	return out
}

func TestPickEnforcesSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		ok     bool
		value  float64
		beyond int
	}{
		{n: 20, q: 0.5, ok: true, value: 10, beyond: 10},
		{n: 19, q: 0.5, ok: false, value: 10, beyond: 9},
		{n: 100, q: 0.9, ok: true, value: 90, beyond: 10},
		{n: 99, q: 0.9, ok: false, value: 90, beyond: 9},
		{n: 1000, q: 0.99, ok: true, value: 990, beyond: 10},
		{n: 999, q: 0.99, ok: false, value: 990, beyond: 9},
		{n: 40, q: 0.75, ok: true, value: 30, beyond: 10},
	}
	for _, c := range cases {
		got, err := pick(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Fatalf("n=%d q=%g: err %v, want ok=%v", c.n, c.q, err, c.ok)
		}
		if got.N != c.n || got.Beyond != c.beyond || got.Value != c.value {
			t.Fatalf("n=%d q=%g: got %+v, want value %g beyond %d", c.n, c.q, got, c.value, c.beyond)
		}
		if err != nil && !strings.Contains(err.Error(), "beyond") {
			t.Fatalf("n=%d q=%g: error %q does not name the sample floor", c.n, c.q, err)
		}
	}
	if _, err := pick(nil, 0.5); err == nil {
		t.Fatal("no samples: want an error")
	}
}

func TestSegmentQuantileSkipsShortSegmentsAndTakesMedian(t *testing.T) {
	var segs [][]float64
	for i := 1; i <= 5; i++ {
		s := make([]float64, 20)
		for k := range s {
			s[k] = float64(i) // every sample of segment i is i
		}
		segs = append(segs, s)
	}
	segs = append(segs, []float64{1000, 1000, 1000}) // too short for a median
	got, err := segmentQuantile(segs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 3 || got.Segments != 5 || got.Samples != 100 {
		t.Fatalf("got %+v, want the median 3 over 5 segments of 100 samples", got)
	}
	if _, err := segmentQuantile(segs[:4], 0.5); err == nil {
		t.Fatalf("4 usable segments: want an error, need %d", minSegments)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %g", got)
	}
}
