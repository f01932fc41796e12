package main

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/api"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{
		{10000, "p99.9"}, {9999, "p99"}, {1000, "p99"}, {999, "p95"}, {200, "p95"},
		{199, "p90"}, {100, "p90"}, {99, "p75"}, {40, "p75"}, {39, "p50"}, {20, "p50"},
	}
	for _, c := range cases {
		q, label, ok := tailPercentile(c.n)
		if !ok || label != c.label {
			t.Errorf("n=%d: got %q ok=%v, want %q", c.n, label, ok, c.label)
			continue
		}
		if beyond := c.n - int(math.Ceil(q*float64(c.n))); beyond < minBeyondTail {
			t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, label, beyond)
		}
	}
	if _, _, ok := tailPercentile(19); ok {
		t.Error("n=19: no percentile has 10 samples beyond it, got one")
	}
}

func TestSummarizeLatencyCountsFailuresAsMisses(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	s, err := summarizeLatency(ms)
	if err != nil {
		t.Fatal(err)
	}
	if s.p50 != 50 || s.tail != 90 || s.tailLabel != "p90" {
		t.Errorf("got p50=%v tail=%v (%s), want 50, 90 (p90)", s.p50, s.tail, s.tailLabel)
	}
	for i := 0; i < 11; i++ {
		ms[i] = math.Inf(1) // eleven failed ops
	}
	if s, _ = summarizeLatency(ms); !math.IsInf(s.tail, 1) {
		t.Errorf("with 11 failed ops the p90 must miss every limit, got %v", s.tail)
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2}, {[]float64{2, 8, 4}, 4}, {[]float64{1.126}, 1.126}, {nil, 0},
	}
	for _, c := range cases {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v", got)
	}
}

// scrape renders one server's cumulative lookup histogram the way
// /metrics exposes it.
func scrape(t *testing.T, le1, le5, le25, inf int, sum float64) promSample {
	t.Helper()
	text := "# HELP x y\n# TYPE cdpd_cache_lookup_seconds histogram\n" +
		"cdpd_cache_lookup_seconds_bucket{le=\"0.001\"} " + itoa(le1) + "\n" +
		"cdpd_cache_lookup_seconds_bucket{le=\"0.005\"} " + itoa(le5) + "\n" +
		"cdpd_cache_lookup_seconds_bucket{le=\"0.025\"} " + itoa(le25) + "\n" +
		"cdpd_cache_lookup_seconds_bucket{le=\"+Inf\"} " + itoa(inf) + "\n" +
		"cdpd_cache_lookup_seconds_sum " + ftoa(sum) + "\n" +
		"cdpd_cache_lookup_seconds_count " + itoa(inf) + "\n" +
		"cdpd_build_info{go_version=\"go1.24.0\",schema=\"2\"} 1\n"
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func itoa(n int) string     { return strconv.Itoa(n) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func TestHistogramDeltaInterpolatesWithinBuckets(t *testing.T) {
	// Two servers; between the scrapes server A observed 10 lookups at or
	// below 1 ms and 20 in (1, 5] ms, server B 10 in (5, 25] ms.
	before := []promSample{scrape(t, 5, 5, 5, 5, 0.001), scrape(t, 0, 0, 0, 0, 0)}
	after := []promSample{scrape(t, 15, 35, 35, 35, 0.051), scrape(t, 0, 0, 10, 10, 0.15)}
	h, err := histogramDelta(before, after, "cdpd_cache_lookup_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 40 || h.Counts[0] != 10 || h.Counts[1] != 20 || h.Counts[2] != 10 {
		t.Fatalf("got counts %v total %d, want [10 20 10] of 40", h.Counts, h.Count)
	}
	if math.Abs(h.SumSecs-0.2) > 1e-12 {
		t.Errorf("sum %v, want 0.2", h.SumSecs)
	}
	// p50: rank 20 is the 10th of 20 observations in (1, 5] ms.
	if got := h.Quantile(0.5); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("p50 = %v, want 0.003", got)
	}
	// p99: rank 39.6 is 9.6 of 10 into (5, 25] ms.
	if got := h.Quantile(0.99); math.Abs(got-0.0242) > 1e-12 {
		t.Errorf("p99 = %v, want 0.0242", got)
	}
	if lo, hi := bucketOf(h.Bounds, 0.003); lo != 0.001 || hi != 0.005 {
		t.Errorf("resolution of 3 ms: got (%v, %v]", lo, hi)
	}
	if _, hi := bucketOf(h.Bounds, 1); !math.IsInf(hi, 1) {
		t.Errorf("beyond the last bound the bucket must be open, got %v", hi)
	}
	if _, err := histogramDelta(before, after, "cdpd_absent_seconds"); err == nil {
		t.Error("a histogram the servers do not expose must be an error")
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"cdpd_sims_total\n", "cdpd_sims_total one\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}

func TestKeyWalkNeverRepeats(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 1979, -5} {
		w := newKeyWalk(seed)
		seen := map[string]bool{}
		for i := 0; ; i++ {
			req, ok := w.at(i)
			if !ok {
				if uint64(i) != w.n {
					t.Fatalf("seed %d: walk ended after %d of %d keys", seed, i, w.n)
				}
				break
			}
			k := keyOf(req)
			if seen[k] {
				t.Fatalf("seed %d: step %d repeats key %s", seed, i, k)
			}
			seen[k] = true
			if _, _, _, err := api.ResolveSim(req); err != nil {
				t.Fatalf("seed %d: step %d is not a valid request: %v", seed, i, err)
			}
		}
	}
}

func TestMixPlanHoldsThreeHitsToOneMiss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 1979} {
		p := mixPlan{seed: seed}
		positions := map[int]int{}
		for block := 0; block < 1000; block++ {
			misses := 0
			for j := 0; j < 4; j++ {
				if p.isMiss(4*block + j) {
					misses++
					positions[j]++
					if got := p.freshIndex(4*block + j); got != block {
						t.Fatalf("seed %d: miss in block %d takes walk step %d", seed, block, got)
					}
				}
			}
			if misses != 1 {
				t.Fatalf("seed %d: block %d has %d misses, want 1", seed, block, misses)
			}
		}
		// The miss position is seeded, not fixed: each slot gets a share.
		for j := 0; j < 4; j++ {
			if positions[j] < 150 {
				t.Errorf("seed %d: slot %d holds the miss in only %d of 1000 blocks", seed, j, positions[j])
			}
		}
		for i := 0; i < 100; i++ {
			if k := p.pick(i, 7); k < 0 || k >= 7 {
				t.Fatalf("seed %d: pick out of range: %d", seed, k)
			}
		}
	}
}

func TestParsePprofTopRollsUpByPackage(t *testing.T) {
	text := `File: perfbench
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  repro/internal/cpu.(*Core).fetch
     200ms 20.00% 70.00%      200ms 20.00%  repro/internal/cache.(*Cache).Lookup (inline)
     100ms 10.00% 80.00%      100ms 10.00%  repro/internal/prefetch/registry.Build
     100ms 10.00% 90.00%      150ms 15.00%  runtime.scanobject
     100ms 10.00%   100%      100ms 10.00%  main.run.func1
         0     0%   100%      150ms 15.00%  runtime.gcBgMarkWorker
`
	flat, cum, err := parsePprofTop(text)
	if err != nil {
		t.Fatal(err)
	}
	if flat["repro/internal/cache.(*Cache).Lookup"] != 200 || cum["runtime.gcBgMarkWorker"] != 150 {
		t.Errorf("got flat %v cum %v", flat, cum)
	}
	for fn, want := range map[string]string{
		"repro/internal/sim.(*MemSystem).walk.func1": "repro/internal/sim",
		"repro/internal/prefetch/registry.Build":     "repro/internal/prefetch/registry",
		"runtime.scanobject":                         "runtime",
		"main.run.func1":                             "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if _, _, err := parsePprofTop("no table here\n"); err == nil {
		t.Error("output without a table header must be an error")
	}
}
