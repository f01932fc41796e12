package api

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// snapshot copies the histogram's atomics, as a scrape of /metrics would.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Counts:  make([]uint64, len(h.bounds)),
		SumSecs: float64(h.sumNs.Load()) / 1e9,
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := newHistogram(latencyBuckets)
	// 8 observations at ~10ms (bucket (0.005, 0.025]), 2 at ~300ms
	// (bucket (0.1, 0.5]).
	for i := 0; i < 8; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(300 * time.Millisecond)
	h.Observe(300 * time.Millisecond)

	s := h.snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.SumSecs; math.Abs(got-0.68) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	// p50 rank 5 of 10 falls in the 10ms bucket: between 0.005 and 0.025.
	if q := s.Quantile(0.5); q <= 0.005 || q > 0.025 {
		t.Fatalf("p50 = %v, want within (0.005, 0.025]", q)
	}
	// p99 rank 9.9 falls in the 300ms bucket.
	if q := s.Quantile(0.99); q <= 0.1 || q > 0.5 {
		t.Fatalf("p99 = %v, want within (0.1, 0.5]", q)
	}
	if q := s.Quantile(1); q <= 0.1 || q > 0.5 {
		t.Fatalf("p100 = %v", q)
	}

	var empty HistogramSnapshot
	if q := (&empty).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramQuantileBeyondLastBound(t *testing.T) {
	h := newHistogram(latencyBuckets)
	h.Observe(2 * time.Minute) // beyond the 60s bound: +Inf bucket
	s := h.snapshot()
	if q := s.Quantile(0.5); q != latencyBuckets[len(latencyBuckets)-1] {
		t.Fatalf("quantile in +Inf bucket = %v, want clamp to last bound", q)
	}
}

// TestLatencyBucketLadder pins the bucket layout: ascending, four bounds
// per doubling from at most 0.25 ms to at least 60 s, and le labels that
// render without an exponent so scrapers that re-render a parsed bound
// (perfbench's histogramDelta) find the same series again.
func TestLatencyBucketLadder(t *testing.T) {
	b := latencyBuckets
	if b[0] > 0.25e-3 || b[len(b)-1] < 60 {
		t.Fatalf("ladder spans [%g, %g], want from <= 0.00025 to >= 60", b[0], b[len(b)-1])
	}
	for i, v := range b {
		if s := formatBound(v); strings.ContainsAny(s, "eE") {
			t.Errorf("bound %d renders as %q", i, s)
		}
		if i >= 4 {
			if r := v / b[i-4]; r < 1.98 || r > 2.02 {
				t.Errorf("bounds %g..%g: four steps span %.3fx, want 2x", b[i-4], v, r)
			}
		}
	}
}

// TestHistogramQuantileResolution: a p50 interpolated inside one bucket of
// the ladder lands within 19% of the true median. Five-fold
// buckets (1, 5, 25, 100 ms, ...) would read 40 ms here, 33% off.
func TestHistogramQuantileResolution(t *testing.T) {
	h := newHistogram(latencyBuckets)
	var ms []float64
	for d := 10 * time.Millisecond; d <= 50*time.Millisecond; d += 100 * time.Microsecond {
		h.Observe(d)
		ms = append(ms, d.Seconds())
	}
	sort.Float64s(ms)
	want := ms[len(ms)/2]
	s := h.snapshot()
	if got := s.Quantile(0.5); math.Abs(got-want)/want > 0.19 {
		t.Fatalf("p50 = %.4fs, true median %.4fs: off by more than 19%%", got, want)
	}
}
