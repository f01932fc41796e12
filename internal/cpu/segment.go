package cpu

import (
	"fmt"

	"repro/internal/trace"
)

// SegmentPlan drives checkpointed execution. RunSegmented pauses fetch at
// every absolute multiple of Every fetched µops, drains the machine — ROB
// empty, store buffer empty, memory system quiesced per Quiesced — and
// calls OnBoundary at each such quiesce point. Because the boundaries are
// fixed op counts, a run resumed from a boundary snapshot replays exactly
// the segmentation of an uninterrupted checkpointed run, which is what
// makes resumed results byte-identical.
type SegmentPlan struct {
	// Every is the checkpoint interval in fetched µops (> 0).
	Every int
	// Quiesced reports whether the memory system has fully drained:
	// no scheduled events, no in-flight transactions, empty arbiters.
	Quiesced func() bool
	// OnBoundary runs at each mid-run quiesce point with the absolute
	// number of µops fetched so far. Returning an error aborts the run;
	// RunSegmented returns it with the partial Result.
	OnBoundary func(opsFetched int) error
}

// RunSegmented is Run with checkpoint boundaries. It executes up to maxOps
// µops of tr (0 = all), draining the machine at each plan boundary. Unlike
// Run, it also drains outstanding stores and waits for memory-system
// quiescence before finishing, so the final cycle count reflects a fully
// drained machine; this costs a few cycles versus Run and is part of why
// the checkpoint interval belongs in the simulation's content hash.
func (c *Core) RunSegmented(tr *trace.Trace, mp MemPort, maxOps int, plan SegmentPlan) (Result, error) {
	if plan.Every <= 0 || plan.Quiesced == nil || plan.OnBoundary == nil {
		return Result{}, fmt.Errorf("cpu: segment plan needs Every > 0, Quiesced and OnBoundary")
	}
	ops := limitOps(tr, maxOps)

	for c.fetchIdx < len(ops) || c.count > 0 || c.outstandingStores > 0 {
		// This segment's fetch ceiling: the next absolute multiple of
		// Every (so a resumed core, whose fetchIdx starts exactly on a
		// boundary, recomputes the same ceilings as the original run).
		fetchLimit := (c.fetchIdx/plan.Every + 1) * plan.Every
		if fetchLimit > len(ops) {
			fetchLimit = len(ops)
		}
		// Drain the segment: every op below the ceiling fetched and
		// retired, stores drained, and the memory system quiesced.
		c.drive(nil, ops[:fetchLimit], mp, plan.Quiesced)
		// Quiesce point: the pipeline is empty, so every lastWriter
		// reference is stale and ignored by the seq checks. Clearing
		// them keeps a restored core bit-identical to this one instead
		// of merely behaviorally equivalent.
		c.lastWriter = [trace.NumRegs]writerRef{}
		if c.fetchIdx < len(ops) {
			if err := plan.OnBoundary(c.fetchIdx); err != nil {
				c.res.Cycles = c.cycle
				c.st.Cycles = c.cycle
				return c.res, err
			}
		}
	}
	c.res.Cycles = c.cycle
	c.st.Cycles = c.cycle
	return c.res, nil
}

// CoreState is the checkpointable state of a quiesced core. In-flight
// structures (ROB, ready queue, completion heap, writer map) are absent by
// construction: State refuses to capture a core that is not drained.
type CoreState struct {
	Cycle             int64
	FetchIdx          int
	NextSeq           uint64
	FetchBlockedUntil int64
	Res               Result
	Gshare            GshareState
}

// State snapshots a quiesced core; it fails if anything is in flight.
func (c *Core) State() (CoreState, error) {
	if c.count != 0 || len(c.readyQ) != 0 || len(c.completed)+len(c.lane) != 0 ||
		c.outstandingLoads != 0 || c.outstandingStores != 0 {
		return CoreState{}, fmt.Errorf("cpu: core not quiesced (rob %d, ready %d, completions %d, loads %d, stores %d)",
			c.count, len(c.readyQ), len(c.completed)+len(c.lane), c.outstandingLoads, c.outstandingStores)
	}
	return CoreState{
		Cycle:             c.cycle,
		FetchIdx:          c.fetchIdx,
		NextSeq:           c.nextSeq,
		FetchBlockedUntil: c.fetchBlockedUntil,
		Res:               c.res,
		Gshare:            c.bp.State(),
	}, nil
}

// Restore loads a quiesce-point snapshot into a drained (typically freshly
// built) core. haltFetch is necessarily false at a boundary — a halting
// branch clears it when it completes, and completion precedes the drain.
func (c *Core) Restore(st CoreState) error {
	if c.count != 0 || len(c.readyQ) != 0 || len(c.completed)+len(c.lane) != 0 ||
		c.outstandingLoads != 0 || c.outstandingStores != 0 {
		return fmt.Errorf("cpu: cannot restore into a core with work in flight")
	}
	if st.FetchIdx < 0 || st.Cycle < 0 {
		return fmt.Errorf("cpu: negative progress in core state (fetchIdx %d, cycle %d)", st.FetchIdx, st.Cycle)
	}
	if err := c.bp.Restore(st.Gshare); err != nil {
		return err
	}
	c.cycle = st.Cycle
	c.fetchIdx = st.FetchIdx
	c.nextSeq = st.NextSeq
	c.fetchBlockedUntil = st.FetchBlockedUntil
	c.res = st.Res
	c.haltFetch = false
	c.lastWriter = [trace.NumRegs]writerRef{}
	return nil
}
