package api

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// histogram is a fixed-bucket, lock-free latency histogram in the
// Prometheus cumulative style. Observations and scrapes only use atomics,
// so it can sit on the request path. The sum is kept in integer
// nanoseconds to stay atomically addable; the exposition converts to
// seconds.
type histogram struct {
	bounds []float64 // bucket upper bounds in seconds, ascending
	counts []atomic.Uint64
	sumNs  atomic.Int64
	count  atomic.Uint64
}

// latencyBuckets is a log-spaced ladder of four bounds per doubling, from
// 0.25 ms (sub-millisecond cache probes) to past 60 s (multi-minute
// simulations), so a quantile interpolated inside a bucket is off by at most
// the bucket's ~19% width. Bounds are rounded to three significant digits to
// keep the exposition's le labels short. The same scale serves all three
// cdpd latency series so dashboards can overlay them.
var latencyBuckets = func() []float64 {
	var bounds []float64
	for k := 0; ; k++ {
		b := 0.25e-3 * math.Exp2(float64(k)/4)
		b, _ = strconv.ParseFloat(strconv.FormatFloat(b, 'g', 3, 64), 64) // a 'g' rendering always parses
		bounds = append(bounds, b)
		if b >= 60 {
			return bounds
		}
	}
}()

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) {
	if i := sort.SearchFloat64s(h.bounds, d.Seconds()); i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// write emits the histogram in the text exposition format: cumulative
// _bucket series with le labels (ending at +Inf), then _sum and _count.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// formatBound renders a bucket bound the way Prometheus does: shortest
// representation, no exponent for these magnitudes.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// HistogramSnapshot is the observations one latency histogram made over
// some interval: per-bucket (not cumulative) counts plus sum and count.
// perfbench builds these from paired /metrics scrapes and reads quantiles
// from them with Quantile.
type HistogramSnapshot struct {
	// Bounds are bucket upper limits in seconds, ascending; Counts[i] is
	// the observations at or below Bounds[i] and above Bounds[i-1]. An
	// implicit +Inf bucket holds Count minus the sum of Counts.
	Bounds  []float64
	Counts  []uint64
	SumSecs float64
	Count   uint64
}

// Quantile estimates the q-th quantile (0 < q <= 1) in seconds by linear
// interpolation within the holding bucket, the same estimate PromQL's
// histogram_quantile gives. Observations beyond the last bound clamp to
// it. Returns 0 when the histogram is empty.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(c)
		}
	}
	// Rank falls in the +Inf bucket: the best bounded estimate is the
	// largest finite bound.
	return s.Bounds[len(s.Bounds)-1]
}
