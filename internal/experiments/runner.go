// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each experiment
// runs a matrix of (benchmark, machine-configuration) simulations in
// parallel and renders the paper's rows or series as text.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options scales an experiment run.
type Options struct {
	// Ctx cancels a run (nil = context.Background()). Cancellation stops
	// simulations mid-run (sim.RunContext) and starts no new ones: every
	// matrix cell that had not completed stays nil, and the run returns an
	// error naming how many cells completed, never a partial report.
	Ctx context.Context
	// Ops is the per-benchmark µop budget (0 = workloads.DefaultOps).
	Ops int
	// Reps restricts multi-config sweeps to one benchmark per suite
	// (Figure 1's readability subset); full per-benchmark experiments
	// (Table 2, Figures 10/11) always use all fifteen.
	Reps bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, is called after each completed matrix cell
	// with the running completion count and the matrix total, on the
	// goroutine that called Run.
	Progress func(done, total int)
}

// rootCtx is the experiments package's single ambient-context fallback: an
// Options with no Ctx belongs to a process-lifecycle caller (cmd/experiments,
// the benchmarks in bench_test.go) that runs the experiment to completion or
// dies with it, so the detached context is the intended semantics, not an
// accident. Every other path must thread Options.Ctx. Keeping the fallback
// in one declared root means `go run ./cmd/simlint` proves no new ambient
// context sneaks into the service layer.
//
// simlint:rootctx
func rootCtx() context.Context {
	return context.Background()
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return rootCtx()
}

func (o Options) ops() int {
	if o.Ops > 0 {
		return o.Ops
	}
	return workloads.DefaultOps
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) sweepSpecs() []workloads.Spec {
	if o.Reps {
		return workloads.SuiteRepresentatives()
	}
	return workloads.All()
}

// baseConfig is the Table 1 stride-only baseline scaled to the options.
func baseConfig(o Options) sim.Config { return sim.ForOps(o.ops()) }

// with4MB returns cfg with the 4 MiB UL2 of Figure 1 / Table 2.
func with4MB(cfg sim.Config) sim.Config {
	cfg.L2.SizeBytes = 4 * 1024 * 1024
	cfg.Name += "-4MB"
	return cfg
}

// Report is one experiment's rendered outcome.
type Report struct {
	ID    string
	Title string
	Text  string
}

// runMatrix simulates every (spec, config) pair and returns results indexed
// [spec][config]. Checkpoints are generated once per spec and shared (the
// simulator never mutates them). Cancelling o.Ctx stops the sweep between
// cells: completed cells keep their results, unstarted cells stay nil, and
// the returned error reports the partial coverage.
func runMatrix(o Options, specs []workloads.Spec, cfgs []sim.Config) ([][]*sim.Result, error) {
	ctx := o.ctx()
	total := len(specs) * len(cfgs)
	// Pre-generate checkpoints sequentially (generation itself is
	// allocation-heavy; doing it once also warms the cache).
	cks := make([]*trace.Checkpoint, len(specs))
	for i, s := range specs {
		if err := ctx.Err(); err != nil {
			return nil, partialErr(0, total, err)
		}
		cks[i] = workloads.Checkpoint(s, o.ops())
	}
	out := make([][]*sim.Result, len(specs))
	for i := range out {
		out[i] = make([]*sim.Result, len(cfgs))
	}
	done, err := Sweep(ctx, total, o.workers(), o.Progress, func(ctx context.Context, i int) error {
		si, ci := i/len(cfgs), i%len(cfgs)
		res, err := sim.RunContext(ctx, cks[si], cfgs[ci])
		out[si][ci] = res
		return err
	})
	if cerr := ctx.Err(); cerr != nil {
		return out, partialErr(done, total, cerr)
	}
	return out, err
}

// Sweep is the one bounded fan-out over the cells of a sweep: the
// experiments' matrices and the daemon's arena both run through it. It
// calls cell(ctx, i) for i in [0, total), starting cells in index order on
// at most fanout goroutines (fanout < 1 means one). Once ctx is cancelled
// or a cell has failed, no further cell starts; cells already running
// finish. progress, when non-nil, is called on the caller's goroutine
// after each successful cell with the running count and total.
//
// Sweep returns how many cells succeeded. The error is ctx's when it was
// cancelled, otherwise the failure of the lowest-indexed failed cell:
// cells start in index order, so that error does not depend on which
// goroutine finished first.
func Sweep(ctx context.Context, total, fanout int, progress func(done, total int), cell func(ctx context.Context, i int) error) (int, error) {
	type outcome struct {
		i   int
		err error
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		outcomes = make(chan outcome)
	)
	for range min(max(fanout, 1), total) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				err := runCell(ctx, i, cell)
				if err != nil {
					failed.Store(true)
				}
				outcomes <- outcome{i, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()
	done, first := 0, outcome{i: total}
	for o := range outcomes {
		switch {
		case o.err == nil:
			done++
			if progress != nil {
				progress(done, total)
			}
		case o.i < first.i:
			first = o
		}
	}
	if err := ctx.Err(); err != nil {
		return done, err
	}
	return done, first.err
}

// runCell runs one cell, turning a panic into the cell's error: the cells
// run on the sweep's own goroutines, where a panic would otherwise take
// the whole process down instead of failing one job.
func runCell(ctx context.Context, i int, cell func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return cell(ctx, i)
}

// partialErr wraps a context error with the sweep coverage at the moment it
// took effect, so callers can report how much of a matrix survives.
func partialErr(done, total int, err error) error {
	return fmt.Errorf("experiments: sweep cancelled after %d of %d simulations: %w", done, total, err)
}

// meanSpeedup averages per-benchmark speedups of column ci relative to
// column base.
func meanSpeedup(results [][]*sim.Result, ci, base int) float64 {
	var sum float64
	for _, row := range results {
		sum += row[ci].SpeedupOver(row[base])
	}
	return sum / float64(len(results))
}

// Runner is one registered experiment. Run returns an error, and no
// report, when the options' context was cancelled or a simulation failed.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var registry []Runner

func register(id, title string, fn func(Options) (*Report, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: fn})
}

// IDs lists registered experiment ids in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Get finds an experiment by id.
func Get(id string) (Runner, error) {
	for _, r := range registry {
		if r.ID == id {
			return r, nil
		}
	}
	sorted := append([]string(nil), IDs()...)
	sort.Strings(sorted)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, sorted)
}

// RunAll executes every experiment and returns the reports in order. On
// cancellation it returns the reports completed so far together with the
// partial-result error of the experiment that was cut short.
func RunAll(o Options) ([]*Report, error) {
	out := make([]*Report, 0, len(registry))
	for _, r := range registry {
		rep, err := r.Run(o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
