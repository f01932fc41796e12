package sim

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simtrace"
)

// walkKind selects what a page walk continues into once the translation is
// known.
type walkKind uint8

const (
	// walkLoad and walkStore are demand walks: the access continues
	// into the L2.
	walkLoad walkKind = iota
	walkStore
	// walkContent is a speculative walk for a content-prefetch candidate
	// (accounted separately and charged to the prefetcher, not the
	// demand stream); the candidate is enqueued once translated.
	walkContent
)

// pageWalk is one two-level page-table walk in flight: the translation
// being resolved and the access waiting on it. Walks are pooled on the
// memory system, and each pooled walk carries one page-table-read
// continuation built when the walk was first allocated, so a TLB miss costs
// no allocation. The continuation is safe to reuse because a walk has at
// most one page-table read outstanding, and it returns to the pool only
// after its last read has completed and its access has moved on.
type pageWalk struct {
	kind  walkKind
	level uint8 // table being read: 0 = page directory, 1 = page table
	va    uint32
	refs  [2]mem.WalkEntry
	frame uint32
	ok    bool

	// Demand walks: the access's completion and whether the L1-stream
	// engines issued for it.
	done         func(at int64)
	strideIssued bool

	// Content walks: the candidate and its content chain.
	cand  core.Candidate
	chain uint64

	// resume is this walk's page-table-read continuation.
	resume func(at int64)
}

// newWalk takes a walk of the given kind for va from the pool, growing the
// pool when it is empty. It stays out of line so that the growth
// allocation is charged here rather than to the hot paths that call it
// (cmd/allocheck attributes escapes by source position).
//
//go:noinline
func (ms *MemSystem) newWalk(kind walkKind, va uint32) *pageWalk {
	var w *pageWalk
	if n := len(ms.walkFree); n > 0 {
		w = ms.walkFree[n-1]
		ms.walkFree[n-1] = nil
		ms.walkFree = ms.walkFree[:n-1]
		*w = pageWalk{resume: w.resume}
	} else {
		w = &pageWalk{}
		w.resume = func(at int64) { ms.walkStep(w, at) }
	}
	w.kind, w.va = kind, va
	return w
}

// walk resolves w.va's translation by walking the page table; callers
// handle the DTLB lookup themselves (so the hot TLB-hit path continues
// inline) and reach here only on a miss.
func (ms *MemSystem) walk(cycle int64, w *pageWalk) {
	speculative := w.kind == walkContent
	if speculative {
		ms.st.CDPWalks++
	} else {
		ms.st.Walks++
	}
	if ms.tr.Enabled() {
		spec := uint64(0)
		if speculative {
			spec = 1
		}
		ms.tr.Emit(simtrace.Event{
			Kind: simtrace.KindWalk, Comp: simtrace.CompTLB,
			Cycle: cycle, Addr: w.va, Arg: spec,
		})
	}
	w.refs, w.frame, w.ok = ms.space.Walk(w.va)
	// First level: page-directory entry. ptRead may complete the whole
	// walk synchronously and return w to the pool, so w is not touched
	// after it.
	ms.ptRead(cycle, w.refs[0].Addr, w.resume)
}

// walkStep continues w after one of its page-table reads completes at at.
func (ms *MemSystem) walkStep(w *pageWalk, at int64) {
	if w.level == 0 {
		if w.refs[0].Value&mem.PresentBit == 0 {
			ms.finishWalk(w, at, 0, false)
			return
		}
		// Second level: page-table entry.
		w.level = 1
		ms.ptRead(at, w.refs[1].Addr, w.resume)
		return
	}
	if !w.ok {
		ms.finishWalk(w, at, 0, false)
		return
	}
	if w.kind == walkContent {
		ms.dtlb.InsertCold(w.va, w.frame)
	} else {
		ms.dtlb.Insert(w.va, w.frame)
	}
	ms.finishWalk(w, at, w.frame<<mem.PageShift|w.va&mem.PageMask, true)
}

// finishWalk continues the access that waited on w with the translation
// (ok = false: the page is unmapped), then returns w to the pool.
func (ms *MemSystem) finishWalk(w *pageWalk, at int64, pa uint32, ok bool) {
	switch {
	case w.kind == walkContent && !ok:
		ms.st.PrefDroppedUnmapped++
	case w.kind == walkContent:
		ms.finishContentPrefetch(at, pa, w.cand, w.chain)
	case !ok:
		// Demand access to an unmapped page: return junk after an
		// L2-latency delay. Valid traces never hit this path.
		w.done(at + ms.cfg.L2Lat)
	default:
		ms.l2Access(at, pa, w.va, w.done, w.strideIssued, w.kind == walkStore)
	}
	ms.walkFree = append(ms.walkFree, w)
}
