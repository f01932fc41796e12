package sim

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/workloads"
)

// TestRunContextCancelled: a dead context refuses to simulate and does not
// advance the process-wide run counter.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 10_000)
	before := Runs()
	res, err := RunContext(ctx, ck, Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled RunContext still returned a result")
	}
	if Runs() != before {
		t.Fatal("cancelled RunContext advanced the run counter")
	}
}

// cancelAfterStart is a context that is live when RunContext first checks
// it and cancelled from then on. Its Done channel is already closed, so
// the simulation loop sees the cancellation at its first poll.
type cancelAfterStart struct {
	context.Context
	done   chan struct{}
	checks atomic.Int32
}

func (c *cancelAfterStart) Done() <-chan struct{} { return c.done }

func (c *cancelAfterStart) Err() error {
	if c.checks.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestRunContextCancelledMidRun: a context cancelled after the simulation
// has started stops it. The stopped run returns no result and does not
// advance the run counter, so a killed worker's abandoned simulation never
// counts as a run.
func TestRunContextCancelledMidRun(t *testing.T) {
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 30_000)
	ctx := &cancelAfterStart{Context: context.Background(), done: make(chan struct{})}
	close(ctx.done)
	before := Runs()
	res, err := RunContext(ctx, ck, Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("RunContext cancelled mid-run still returned a result")
	}
	if Runs() != before {
		t.Fatal("RunContext cancelled mid-run advanced the run counter")
	}
}

// TestRunContextMatchesRun: with a live context, RunContext is Run — same
// counters, same measured region, bit for bit. The context is cancellable,
// so the simulation loop polls it the whole run.
func TestRunContextMatchesRun(t *testing.T) {
	spec, err := workloads.ByName("b2c")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, 30_000)
	cfg := Default()
	cfg.WarmupOps = 5_000
	want := Run(ck, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeasuredCycles != want.MeasuredCycles || got.MeasuredUops != want.MeasuredUops {
		t.Fatalf("RunContext measured %d cycles / %d µops, Run measured %d / %d",
			got.MeasuredCycles, got.MeasuredUops, want.MeasuredCycles, want.MeasuredUops)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatal("RunContext and Run produced different counter blocks")
	}
}
