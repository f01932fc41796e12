package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runs counts completed simulations process-wide: cdpd's simulation counter
// on /metrics and the chaos scenarios' exactly-once checks read it.
var runs atomic.Uint64

// Runs reports how many simulations this process has completed.
func Runs() uint64 { return runs.Load() }

// Result is one complete simulation outcome.
type Result struct {
	Config   Config
	Core     cpu.Result
	Counters *stats.Counters
	MPTU     *stats.MPTUSeries

	// MeasuredCycles and MeasuredUops cover the post-warm-up region only
	// (the paper's measurement methodology, Section 2.2).
	MeasuredCycles int64
	MeasuredUops   uint64

	// TLBHits/TLBMisses are lifetime translation counts.
	TLBHits   uint64
	TLBMisses uint64
}

// IPC is retired µops per cycle over the measured region.
func (r *Result) IPC() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.MeasuredUops) / float64(r.MeasuredCycles)
}

// SpeedupOver returns base's measured cycles divided by r's — the paper's
// speedup metric (relative to the stride-prefetcher baseline).
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(base.MeasuredCycles) / float64(r.MeasuredCycles)
}

func (r *Result) String() string {
	return fmt.Sprintf("result{%s: %d µops in %d cycles, IPC %.3f, L2 MPTU %.2f}",
		r.Config.Name, r.MeasuredUops, r.MeasuredCycles, r.IPC(),
		r.Counters.MPTUFor(r.MeasuredUops))
}

// RunContext is Run that stops when ctx is cancelled, before or during the
// simulation, and then returns ctx's error. A stopped run yields no result
// and is not counted by Runs; a run that finishes is byte-identical to Run,
// because watching ctx never touches the simulated machine.
func RunContext(ctx context.Context, ck *trace.Checkpoint, cfg Config) (*Result, error) {
	return RunTracedContext(ctx, ck, cfg, nil)
}

// RunTracedContext is RunContext with an event tracer attached (nil is
// exactly RunContext).
func RunTracedContext(ctx context.Context, ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res := runUntil(ctx.Done(), ck, cfg, tr); res != nil {
		return res, nil
	}
	return nil, ctx.Err()
}

// Run simulates one checkpoint on one machine configuration.
func Run(ck *trace.Checkpoint, cfg Config) *Result {
	return RunTraced(ck, cfg, nil)
}

// RunTraced is Run with an event tracer attached (nil is exactly Run).
// Tracing observes the simulation without perturbing it: the result is
// byte-identical whether or not a tracer is attached.
func RunTraced(ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) *Result {
	return runUntil(nil, ck, cfg, tr)
}

// runUntil simulates ck, giving up with a nil result once done is closed.
func runUntil(done <-chan struct{}, ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	st := &stats.Counters{}
	mptu := stats.NewMPTUSeries(cfg.MPTUBucketOps)
	ms := NewMemSystem(&cfg, ck.Space, st, mptu)
	c := cpu.New(cfg.Core, st)
	if tr != nil {
		ms.AttachTracer(tr)
		c.AttachTracer(tr)
	}

	var warmCycle int64
	if cfg.WarmupOps > 0 {
		// The observer unsubscribes at the warm-up boundary so the
		// post-warm-up region (the measured bulk of the run) retires
		// with batched accounting and no per-µop callback.
		c.OnRetire = func(retired uint64, cycle int64) {
			if retired >= cfg.WarmupOps {
				warmCycle = cycle
				st.Reset(cycle)
				c.OnRetire = nil
			}
		}
	}
	coreRes, finished := c.RunUntil(done, ck.Trace, ms, cfg.MaxOps)
	if !finished {
		return nil
	}
	st.Cycles = coreRes.Cycles
	st.WarmCycles = warmCycle

	hits, misses := ms.TLBStats()
	// Mirror the lifetime translation counts into the counter block so the
	// report emitter sees them (statsreg keeps the two in lockstep).
	st.TLBHits = hits
	st.TLBMisses = misses
	res := &Result{
		Config:         cfg,
		Core:           coreRes,
		Counters:       st,
		MPTU:           mptu,
		MeasuredCycles: coreRes.Cycles - warmCycle,
		MeasuredUops:   coreRes.Retired,
		TLBHits:        hits,
		TLBMisses:      misses,
	}
	if cfg.WarmupOps > 0 && coreRes.Retired > cfg.WarmupOps {
		res.MeasuredUops = coreRes.Retired - cfg.WarmupOps
	}
	runs.Add(1)
	return res
}
