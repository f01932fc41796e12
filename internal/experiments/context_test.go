package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestRunMatrixPreCancelled: a context that is already cancelled never
// simulates anything and surfaces the cancellation as a partial-result
// error.
func TestRunMatrixPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Ops: 20_000, Ctx: ctx, Parallelism: 2}
	specs := workloads.SuiteRepresentatives()[:2]
	before := sim.Runs()
	_, err := runMatrix(o, specs, []sim.Config{baseConfig(o)})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got := sim.Runs() - before; got != 0 {
		t.Fatalf("cancelled sweep still ran %d simulations", got)
	}
}

// TestRunMatrixCancelMidSweep cancels after the first completed cell and
// requires the sweep to stop early: the error reports partial coverage and
// at least one cell of the result grid stays nil.
func TestRunMatrixCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := workloads.SuiteRepresentatives()
	o := Options{
		Ops:         20_000,
		Ctx:         ctx,
		Parallelism: 1, // serialize so "after the first cell" is exact
		Progress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	}
	cfgs := []sim.Config{baseConfig(o), with4MB(baseConfig(o))}
	results, err := runMatrix(o, specs, cfgs)
	if err == nil {
		t.Fatal("mid-sweep cancellation produced no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	completed, missing := 0, 0
	for _, row := range results {
		for _, r := range row {
			if r != nil {
				completed++
			} else {
				missing++
			}
		}
	}
	total := len(specs) * len(cfgs)
	if completed == 0 || completed >= total {
		t.Fatalf("want a partial grid, got %d of %d cells completed", completed, total)
	}
	if missing == 0 {
		t.Fatal("no cell was skipped after cancellation")
	}
}

// TestRunnerPropagatesCancellation pins the user-visible contract: an
// experiment Run with a dead context returns the partial-result error
// rather than a report.
func TestRunnerPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Get("fig1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Options{Ops: 20_000, Reps: true, Ctx: ctx})
	if err == nil {
		t.Fatalf("cancelled fig1 returned a report: %+v", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestSweepFirstErrorInPlanOrder: the sweep reports the lowest-indexed
// failure even when a later cell fails first, starts no cell after a
// failure, and turns a panicking cell into an error.
func TestSweepFirstErrorInPlanOrder(t *testing.T) {
	errLow, errHigh := errors.New("cell 0"), errors.New("cell 1")
	_, err := Sweep(context.Background(), 2, 2, nil, func(ctx context.Context, i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // fail after cell 1 has
			return errLow
		}
		return errHigh
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("sweep error %v, want the lowest-indexed failure %v", err, errLow)
	}

	var started []int
	done, err := Sweep(context.Background(), 5, 1, nil, func(ctx context.Context, i int) error {
		started = append(started, i)
		if i == 2 {
			return errLow
		}
		return nil
	})
	if !errors.Is(err, errLow) || done != 2 || len(started) != 3 {
		t.Fatalf("serial sweep: err %v, %d done, started %v; want cells 0-2 started and 2 done", err, done, started)
	}

	_, err = Sweep(context.Background(), 3, 2, nil, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking cell gave error %v, want one naming the panic", err)
	}
}
