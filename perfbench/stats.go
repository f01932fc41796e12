package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/api"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none. xs is not modified.
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

// nearestRank returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(r, 0), len(sorted)-1)]
}

// tailLadder lists the percentiles op_tail_ms may report, highest first.
// A fixed ladder keeps the reported percentile from drifting with the
// sample count from one run to the next.
var tailLadder = []struct {
	q     float64
	label string
}{
	{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}, {0.50, "p50"},
}

// minBeyondTail is how many samples must lie beyond the tail percentile.
const minBeyondTail = 10

// tailPercentile picks the highest ladder percentile of n samples with at
// least minBeyondTail samples beyond its nearest rank. ok is false when
// even the median has fewer.
func tailPercentile(n int) (q float64, label string, ok bool) {
	for _, t := range tailLadder {
		rank := int(math.Ceil(t.q * float64(n)))
		if n-rank >= minBeyondTail {
			return t.q, t.label, true
		}
	}
	return 0, "", false
}

// latencySummary is the median and tail of one workload's op latencies.
type latencySummary struct {
	n         int // ops attempted, failed ones included
	p50, tail float64
	tailLabel string
}

// summarizeLatency takes op latencies in ms; failed ops are passed as +Inf
// so they count as missing every latency limit.
func summarizeLatency(ms []float64) (latencySummary, error) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	q, label, ok := tailPercentile(len(s))
	if !ok {
		return latencySummary{}, fmt.Errorf("%d ops leave no percentile with %d samples beyond it", len(s), minBeyondTail)
	}
	return latencySummary{n: len(s), p50: nearestRank(s, 0.5), tail: nearestRank(s, q), tailLabel: label}, nil
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// promSample is every series of one /metrics scrape, keyed by the series
// name with its label set exactly as exposed (`name{le="0.005"}`).
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines are
// skipped; a malformed sample line is an error.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterDelta sums after−before of one series over paired scrapes (one
// pair per server).
func counterDelta(before, after []promSample, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// histogramDelta turns paired scrapes of one histogram (name without the
// _bucket/_sum/_count suffix) into a per-bucket snapshot of the
// observations made between the scrapes, summed over servers. Bucket
// bounds are those the first server exposes.
func histogramDelta(before, after []promSample, name string) (api.HistogramSnapshot, error) {
	var bounds []float64
	prefix := name + `_bucket{le="`
	for series := range after[0] {
		if !strings.HasPrefix(series, prefix) || strings.HasSuffix(series, `"+Inf"}`) {
			continue
		}
		b, err := strconv.ParseFloat(strings.TrimSuffix(series[len(prefix):], `"}`), 64)
		if err != nil {
			return api.HistogramSnapshot{}, fmt.Errorf("histogram %s: bound in %q: %w", name, series, err)
		}
		bounds = append(bounds, b)
	}
	if len(bounds) == 0 {
		return api.HistogramSnapshot{}, fmt.Errorf("histogram %s not exposed", name)
	}
	sort.Float64s(bounds)
	snap := api.HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds))}
	var prevCum float64
	for i, b := range bounds {
		cum := counterDelta(before, after, prefix+strconv.FormatFloat(b, 'g', -1, 64)+`"}`)
		if cum < prevCum {
			return api.HistogramSnapshot{}, fmt.Errorf("histogram %s: cumulative count falls at le=%g", name, b)
		}
		snap.Counts[i] = uint64(cum - prevCum)
		prevCum = cum
	}
	snap.Count = uint64(counterDelta(before, after, name+"_count"))
	snap.SumSecs = counterDelta(before, after, name+"_sum")
	return snap, nil
}

// bucketOf returns the bounds [lo, hi] of the bucket holding value v, the
// resolution of any quantile estimated inside it. hi is +Inf beyond the
// last bound.
func bucketOf(bounds []float64, v float64) (lo, hi float64) {
	for i, b := range bounds {
		if v <= b {
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo, b
		}
	}
	return bounds[len(bounds)-1], math.Inf(1)
}

// splitmix64 is the seed mixer every seeded choice in the benchmark uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixSeed derives a stream seed from the run seed and a list of labels.
func mixSeed(seed int64, parts ...uint64) uint64 {
	h := splitmix64(uint64(seed))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// nameHash folds a benchmark name into a seed part.
func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
