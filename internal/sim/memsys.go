package sim

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/registry"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// strideRecentCap bounds the set of recently stride-requested lines used to
// compute the stride-adjusted content metrics of Figures 7/8.
const strideRecentCap = 8192

// MemSystem is the event-driven memory hierarchy below the core. It
// implements cpu.MemPort.
type MemSystem struct {
	cfg   *Config
	space *mem.AddressSpace

	l1   *cache.Cache
	l2   *cache.Cache
	dtlb *tlb.TLB

	fsb  *bus.Bus
	l2q  *bus.Arbiter
	busq *bus.Arbiter

	// stride and mkv keep typed handles for checkpointing and the tuning
	// experiments; aux is the cfg.Engine zoo entrant. All miss-stream
	// engines are *driven* only through ports, the ordered Prefetcher
	// chain (stride first, then the L2-stream engines), so adding an
	// engine to the zoo never touches the observe code again. The CDP is
	// not in the chain: its stored-depth/rescan coupling with the cache
	// needs the full core.Prefetcher surface (see DESIGN.md §12).
	stride *prefetch.Stride
	cdp    *core.Prefetcher
	mkv    *markov.Markov
	aux    prefetch.Prefetcher
	ports  []enginePort

	// engBuf is the scratch slice engine predictions are appended into;
	// reused across Observe calls so the steady-state miss path allocates
	// nothing.
	engBuf []uint32

	inflight inflightTable // by physical line base
	sched    scheduler
	reqID    uint64
	now      int64

	// reqFree recycles bus.Request objects. A request is referenced only
	// by the two arbiters, the inflight table, and its scheduled fill event,
	// so it can be recycled the moment its fill completes (or it is
	// squashed) without aliasing a live transaction. The freelist keeps
	// the per-request allocation off the miss path entirely.
	reqFree []*bus.Request

	// flying counts granted but not-yet-arrived non-injected transfers.
	// Maintained only under -tags simdebug (debugInvariants), where
	// checkInvariants reconciles it against the inflight table.
	flying int

	l2PortFree int64

	strideRecent map[uint32]bool
	strideFIFO   []uint32

	injLCG     uint32
	lastInject int64
	nextPumpAt int64 // earliest scheduled pump event (0 = none)

	// walkFree recycles page-walk state (see walk.go), so a TLB miss
	// allocates nothing once the pool has grown to the number of walks
	// ever in flight at once.
	walkFree []*pageWalk

	// lineBuf is the scratch buffer the content scanner reads fills
	// through; the scanner only inspects the bytes, so one buffer per
	// memory system keeps line copies off the heap.
	lineBuf [LineSize]byte

	st   *stats.Counters
	mptu *stats.MPTUSeries

	// chainSeq numbers content-prefetch chains. It is maintained
	// unconditionally — the counter is cheap, deterministic, and feeds
	// stats.CDPChains whether or not a tracer is attached.
	chainSeq uint64

	// tr, when non-nil, receives structured events (see internal/simtrace).
	// Every emission is guarded by tr.Enabled() so the disabled (nil) path
	// costs one comparison and zero allocations.
	tr *simtrace.Tracer
}

// AttachTracer wires an event tracer into the memory system and its
// subcomponents (nil detaches). Attach before the first cycle; attaching
// mid-run yields a trace with a truncated prefix but does not perturb the
// simulation.
func (ms *MemSystem) AttachTracer(tr *simtrace.Tracer) {
	ms.tr = tr
	ms.dtlb.AttachTracer(tr)
	if ms.cdp != nil {
		ms.cdp.AttachTracer(tr)
	}
}

// NewMemSystem builds the memory hierarchy for cfg over the given address
// space.
func NewMemSystem(cfg *Config, space *mem.AddressSpace, st *stats.Counters, mptu *stats.MPTUSeries) *MemSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ms := &MemSystem{
		cfg:          cfg,
		space:        space,
		l1:           cache.New(cfg.L1),
		l2:           cache.New(cfg.L2),
		dtlb:         tlb.New(cfg.TLB),
		fsb:          bus.NewBus(cfg.BusLatency, cfg.BusOccupancy),
		l2q:          bus.NewArbiter("l2", cfg.L2QueueSize),
		busq:         bus.NewArbiter("bus", cfg.BusQueueSize),
		inflight:     newInflightTable(cfg.L2QueueSize + cfg.BusQueueSize),
		strideRecent: make(map[uint32]bool),
		injLCG:       0x2545_F491,
		lastInject:   -1,
		st:           st,
		mptu:         mptu,
	}
	if cfg.Stride != nil {
		ms.stride = prefetch.NewStride(*cfg.Stride)
		ms.ports = append(ms.ports, enginePort{eng: ms.stride, class: bus.ClassStride})
	}
	if cfg.Content != nil {
		ms.cdp = core.New(*cfg.Content)
	}
	if cfg.Markov != nil {
		ms.mkv = markov.New(*cfg.Markov)
		ms.ports = append(ms.ports, enginePort{eng: ms.mkv, class: bus.ClassMarkov})
	}
	if cfg.Engine != "" {
		// Validate (above) already proved the spec builds a miss-stream
		// engine. Zoo entrants issue at Markov arbitration rank and are
		// accounted under the markov prefetch source: adding a bus class
		// and a cache source per entrant would grow every per-source
		// report table (and its goldens) for no modelled difference.
		ms.aux = registry.MustBuild(cfg.Engine)
		ms.ports = append(ms.ports, enginePort{eng: ms.aux, class: bus.ClassMarkov})
	}
	ms.engBuf = make([]uint32, 0, 16)
	ms.sched.ms = ms
	return ms
}

// enginePort binds a zoo engine to the bus class its predictions issue at.
type enginePort struct {
	eng   prefetch.Prefetcher
	class bus.Class
}

// newRequest returns a zeroed request, recycling one retired by fillArrive
// or a squash when available.
func (ms *MemSystem) newRequest() *bus.Request {
	n := len(ms.reqFree)
	if n == 0 {
		return &bus.Request{}
	}
	req := ms.reqFree[n-1]
	ms.reqFree[n-1] = nil
	ms.reqFree = ms.reqFree[:n-1]
	*req = bus.Request{Waiters: req.Waiters[:0]}
	return req
}

// releaseRequest returns a dead request to the freelist. Callers must hold
// the only remaining reference: fillArrive (the request has left the
// queues, the inflight table, and the event heap) and the squash path (the
// arbiter removed it, and an unsquashable promoted request never reaches
// here because promotion makes it demand-class).
func (ms *MemSystem) releaseRequest(req *bus.Request) {
	for i := range req.Waiters {
		req.Waiters[i] = nil
	}
	ms.reqFree = append(ms.reqFree, req)
}

// Content returns the content prefetcher (nil if disabled); experiments use
// it for scanner-activity stats.
func (ms *MemSystem) Content() *core.Prefetcher { return ms.cdp }

// TLBStats exposes translation hit/miss counts.
func (ms *MemSystem) TLBStats() (hits, misses uint64) { return ms.dtlb.Stats() }

func lineBase(addr uint32) uint32 { return addr &^ uint32(LineSize-1) }

// Tick implements cpu.MemPort: process all memory events up to cycle.
func (ms *MemSystem) Tick(cycle int64) {
	if cycle > ms.now {
		ms.now = cycle
	}
	if t := ms.sched.next(); t >= 0 && t <= cycle {
		ms.sched.runUntil(cycle)
	}
}

// NextEvent implements cpu.MemPort.
func (ms *MemSystem) NextEvent() int64 { return ms.sched.next() }

// reserveL2 serialises accesses through the single L2 port (Table 1: L2
// throughput one access per cycle) and returns the access's effective
// cycle. Rescan storms therefore delay other L2 work, which is the cost the
// paper attributes to reinforcement.
func (ms *MemSystem) reserveL2(at int64) int64 {
	if ms.l2PortFree < at {
		ms.l2PortFree = at
	}
	slot := ms.l2PortFree
	ms.l2PortFree++
	return slot
}

func srcOf(c bus.Class) cache.Source {
	switch c {
	case bus.ClassStride:
		return cache.SrcStride
	case bus.ClassContent:
		return cache.SrcContent
	case bus.ClassMarkov:
		return cache.SrcMarkov
	default:
		return cache.SrcDemand
	}
}

// ---------------------------------------------------------------------------
// Demand path

// Load implements cpu.MemPort. It runs once per retired load µop, so its
// allocation behaviour is policed: the hotalloc analyzer rejects obvious
// allocation sites and cmd/allocheck ratchets the compiler's escape
// decisions against allocheck.baseline.json.
//
// simlint:hotpath
func (ms *MemSystem) Load(cycle int64, va, pc uint32, done func(int64)) {
	if ms.tr.Enabled() {
		ms.tr.SetNow(cycle)
	}
	ms.st.DemandLoads++
	if l := ms.l1.Lookup(va, true); l != nil {
		ms.st.L1Hits++
		done(cycle + ms.cfg.L1Lat)
		return
	}
	ms.st.L1Misses++
	strideIssued := ms.observeL1Miss(cycle, pc, va)
	if pa, ok := ms.dtlb.Lookup(va); ok {
		ms.l2Access(cycle, pa, va, done, strideIssued, false)
		return
	}
	w := ms.newWalk(walkLoad, va)
	w.done, w.strideIssued = done, strideIssued
	ms.walk(cycle, w)
}

// Store implements cpu.MemPort. Stores are committed (post-retirement), so
// nothing waits on them except the store-buffer slot. Runs once per retired
// store µop; allocation-policed like Load.
//
// simlint:hotpath
func (ms *MemSystem) Store(cycle int64, va, pc uint32, done func(int64)) {
	if ms.tr.Enabled() {
		ms.tr.SetNow(cycle)
	}
	if l := ms.l1.Lookup(va, true); l != nil {
		l.Dirty = true
		done(cycle + ms.cfg.L1Lat)
		return
	}
	strideIssued := ms.observeL1Miss(cycle, pc, va)
	if pa, ok := ms.dtlb.Lookup(va); ok {
		ms.l2Access(cycle, pa, va, done, strideIssued, true)
		return
	}
	w := ms.newWalk(walkStore, va)
	w.done, w.strideIssued = done, strideIssued
	ms.walk(cycle, w)
}

// observeL1Miss drives every L1-stream engine on one L1 miss and issues
// their predictions. It reports whether any prefetch entered the memory
// system for this reference (the blocking condition later engines see as
// PriorIssued — the paper's stride-blocks-Markov rule).
func (ms *MemSystem) observeL1Miss(cycle int64, pc, va uint32) bool {
	issued := false
	for i := range ms.ports {
		p := &ms.ports[i]
		if p.eng.Stream() != prefetch.StreamL1 {
			continue
		}
		preds := p.eng.Observe(prefetch.Event{PC: pc, VA: va, PriorIssued: issued}, ms.engBuf[:0])
		for _, pva := range preds {
			if ms.issuePrediction(cycle, pva, p) {
				issued = true
			}
		}
		ms.engBuf = preds[:0]
	}
	return issued
}

// observeL2Miss drives every L2-stream engine on one UL2 demand miss (line
// granularity). priorIssued seeds the precedence chain with the L1-stream
// outcome; each engine that issues blocks the ones after it.
func (ms *MemSystem) observeL2Miss(slot int64, va uint32, priorIssued bool) {
	prior := priorIssued
	for i := range ms.ports {
		p := &ms.ports[i]
		if p.eng.Stream() != prefetch.StreamL2 {
			continue
		}
		preds := p.eng.Observe(prefetch.Event{VA: lineBase(va), PriorIssued: prior}, ms.engBuf[:0])
		for _, lv := range preds {
			if ms.issuePrediction(slot, lv, p) {
				prior = true
			}
		}
		ms.engBuf = preds[:0]
	}
}

// issuePrediction translates one predicted virtual address per the
// engine's declared mode and enqueues it at the port's bus class. TLB-mode
// predictions whose page is not resident are dropped (no speculative walk
// for miss-stream engines); direct-mode predictions consult the software
// page map and drop unmapped lines. Reports whether the request entered
// the memory system.
func (ms *MemSystem) issuePrediction(at int64, pva uint32, p *enginePort) bool {
	var pa uint32
	var ok bool
	if p.eng.Translate() == prefetch.TranslateTLB {
		pa, ok = ms.dtlb.Lookup(pva)
	} else {
		pa, ok = ms.space.Translate(pva)
	}
	if !ok {
		ms.st.PrefDroppedUnmapped++
		return false
	}
	if p.class == bus.ClassStride {
		ms.noteStrideLine(lineBase(pa))
	}
	return ms.enqueuePrefetch(at, pa, pva, pva, p.class, 0, false)
}

// noteStrideLine records a stride-requested physical line for the
// adjusted-metric overlap test.
func (ms *MemSystem) noteStrideLine(paBase uint32) {
	if ms.strideRecent[paBase] {
		return
	}
	ms.strideRecent[paBase] = true
	ms.strideFIFO = append(ms.strideFIFO, paBase)
	if len(ms.strideFIFO) > strideRecentCap {
		old := ms.strideFIFO[0]
		ms.strideFIFO = ms.strideFIFO[1:]
		delete(ms.strideRecent, old)
	}
}

// ptRead fetches one page-table line through the L2. Page-walk fills bypass
// the content scanner (Section 3.5: page tables are full of pointers).
func (ms *MemSystem) ptRead(cycle int64, pa uint32, cont func(at int64)) {
	slot := ms.reserveL2(cycle)
	if ms.l2.Lookup(pa, true) != nil {
		cont(slot + ms.cfg.L2Lat)
		return
	}
	paBase := lineBase(pa)
	if req := ms.inflight.get(paBase); req != nil {
		req.Waiters = append(req.Waiters, cont)
		return
	}
	ms.reqID++
	req := ms.newRequest()
	req.ID, req.PABase, req.VABase, req.TrigVA = ms.reqID, paBase, paBase, pa
	req.Class, req.PageWalk, req.Enqueued = bus.ClassDemand, true, slot
	req.Waiters = append(req.Waiters, cont)
	ms.enqueueDemandReq(slot, req)
}

// l2Access handles a demand load or store at the (physically indexed) L2.
func (ms *MemSystem) l2Access(at int64, pa, va uint32, done func(int64), strideIssued, isStore bool) {
	slot := ms.reserveL2(at)
	if l := ms.l2.Lookup(pa, true); l != nil {
		if !isStore {
			ms.st.L2Hits++
		}
		if isStore {
			l.Dirty = true
		}
		ms.consumeHit(l, va, slot, isStore)
		ms.l1.Fill(va, cache.Line{Source: cache.SrcDemand, VA: lineBase(va), Dirty: isStore})
		done(slot + ms.cfg.L2Lat)
		return
	}
	// UL2 miss.
	if !isStore {
		ms.st.L2Misses++
		ms.mptu.Record(ms.st.RetiredUops)
	}
	ms.observeL2Miss(slot, va, strideIssued)
	paBase := lineBase(pa)
	if req := ms.inflight.get(paBase); req != nil {
		// A matching transaction is in flight. If it is a prefetch, the
		// demand promotes it to demand priority and depth (positive
		// reinforcement; its latency was partially masked).
		if req.Class.IsPrefetch() {
			src := srcOf(req.Class)
			if !req.DemandWaited && !isStore {
				if ms.tr.Enabled() {
					ms.tr.Emit(simtrace.Event{
						Kind: simtrace.KindPartialHit, Comp: simtrace.CompCache,
						Cycle: slot, Addr: va, Chain: req.Chain,
						Depth: int16(req.Depth), Class: uint8(req.Class),
					})
				}
				ms.st.PartialHits[src]++
				ms.st.PrefUseful[src]++
				if req.Overlap {
					ms.st.CDPOverlapUseful++
				}
				if src == cache.SrcContent && ms.cdp != nil {
					ms.cdp.ResolvePrefetch(true)
					total := req.Arrive - req.Enqueued
					if req.Arrive == 0 {
						// Not yet granted: the demand waits the whole
						// round trip minus queue time already served.
						total = ms.cfg.BusLatency
					}
					elapsed := slot - req.Enqueued
					if total > 0 {
						ms.st.RecordMask(float64(elapsed) / float64(total))
					}
				}
			}
			req.DemandWaited = true
			req.Class = bus.ClassDemand
			req.Depth = 0
			// A queued prefetch now outranks its old position.
			ms.l2q.Fix(req)
			ms.busq.Fix(req)
		}
		req.Waiters = append(req.Waiters, done)
		return
	}
	if !isStore {
		ms.st.MissNoPF++
	}
	ms.reqID++
	req := ms.newRequest()
	req.ID, req.PABase, req.VABase, req.TrigVA = ms.reqID, paBase, lineBase(va), va
	req.Class, req.IsStore, req.Enqueued = bus.ClassDemand, isStore, slot
	req.Waiters = append(req.Waiters, done)
	ms.enqueueDemandReq(slot, req)
}

// consumeHit applies first-touch timeliness classification and the
// reinforcement rules to an L2 hit.
func (ms *MemSystem) consumeHit(l *cache.Line, va uint32, slot int64, isStore bool) {
	if l.Prefetched {
		if ms.tr.Enabled() {
			ms.tr.Emit(simtrace.Event{
				Kind: simtrace.KindDemandHit, Comp: simtrace.CompCache,
				Cycle: slot, Addr: va, Chain: l.Chain,
				Depth: int16(l.Depth), Class: uint8(l.Source),
			})
		}
		src := l.Source
		ms.st.PrefUseful[src]++
		if !isStore {
			ms.st.FullHits[src]++
		}
		if l.Overlap {
			ms.st.CDPOverlapUseful++
		}
		if src == cache.SrcContent && ms.cdp != nil {
			ms.cdp.ResolvePrefetch(true)
			ms.st.RecordMask(1.0)
		}
		l.Prefetched = false
	}
	if ms.cdp != nil && l.Depth > 0 {
		nd, rescan := ms.cdp.OnCacheHit(int(l.Depth), 0)
		if nd != int(l.Depth) {
			l.Depth = uint8(nd)
			ms.st.PromotedDepths++
		}
		if rescan {
			ms.st.Rescans++
			if ms.tr.Enabled() {
				ms.tr.Emit(simtrace.Event{
					Kind: simtrace.KindRescan, Comp: simtrace.CompCDP,
					Cycle: slot, Addr: l.VA, Chain: l.Chain, Depth: int16(nd),
				})
			}
			// The rescan consumes its own L2 port slot shortly after
			// the hit (read port pressure). The event snapshots the
			// line's VA, promoted depth, and chain at schedule time.
			rs := ms.reserveL2(slot + ms.cfg.L2Lat)
			ms.sched.schedule(rs, event{kind: evRescan, hitVA: va, depth: int32(nd), lineVA: l.VA, chain: l.Chain})
		}
	}
}

// ---------------------------------------------------------------------------
// Prefetch issue

// scanAndIssue runs the content scanner over the line at lineVA and issues
// the resulting candidates. chain is the content chain of the fill that
// triggered the scan (0 for demand fills: each candidate issued from a
// non-speculative fill starts a fresh chain in enqueuePrefetch2).
func (ms *MemSystem) scanAndIssue(at int64, trigVA uint32, depth int, lineVA uint32, chain uint64) {
	if ms.cdp == nil {
		return
	}
	if ms.tr.Enabled() {
		// Stamp before the scan so the candidate events OnFill emits
		// carry this cycle.
		ms.tr.SetNow(at)
	}
	ms.space.Img.ReadLineInto(lineVA, ms.lineBuf[:])
	cands := ms.cdp.OnFill(trigVA, depth, lineVA, ms.lineBuf[:])
	if ms.tr.Enabled() {
		ms.tr.Emit(simtrace.Event{
			Kind: simtrace.KindScan, Comp: simtrace.CompCDP,
			Cycle: at, Addr: lineVA, Addr2: trigVA,
			Chain: chain, Depth: int16(depth), Arg: uint64(len(cands)),
		})
	}
	for _, cand := range cands {
		ms.issueContentPrefetch(at, cand, chain)
	}
}

// issueContentPrefetch translates and enqueues one content candidate. A
// translation miss triggers a speculative page walk (the TLB-prefetching
// side effect of Section 4.2.2); an unmapped candidate — a data value that
// happened to look like a pointer — is dropped. Runs once per candidate on
// every scanned fill, so it is allocation-policed.
//
// simlint:hotpath
func (ms *MemSystem) issueContentPrefetch(at int64, cand core.Candidate, chain uint64) {
	if pa, ok := ms.dtlb.Lookup(cand.VA); ok {
		ms.finishContentPrefetch(at, pa, cand, chain)
		return
	}
	ms.st.CDPNeedWalk++
	w := ms.newWalk(walkContent, cand.VA)
	w.cand, w.chain = cand, chain
	ms.walk(at, w)
}

// finishContentPrefetch enqueues a translated content candidate, tagging it
// with the stride-overlap bit the adjusted metrics need.
func (ms *MemSystem) finishContentPrefetch(at int64, pa uint32, cand core.Candidate, chain uint64) {
	overlap := ms.strideRecent[lineBase(pa)]
	if ms.enqueuePrefetch2(at, pa, cand.VA, cand.Pointer, bus.ClassContent, cand.Depth, overlap, cand.Widened, chain) && overlap {
		ms.st.CDPOverlapIssued++
	}
}

// enqueuePrefetch applies the drop rules (already present, already in
// flight, queue full) and enqueues a prefetch. Reports whether the request
// entered the memory system.
func (ms *MemSystem) enqueuePrefetch(at int64, pa, va, trigVA uint32, class bus.Class, depth int, overlap bool) bool {
	return ms.enqueuePrefetch2(at, pa, va, trigVA, class, depth, overlap, false, 0)
}

// enqueuePrefetch2 additionally marks widened (next-/prev-line) requests,
// whose fills are not scanned, and threads the content chain ID: a content
// prefetch arriving with chain 0 (issued off a non-speculative fill)
// starts a fresh chain; deeper issues inherit their trigger's.
func (ms *MemSystem) enqueuePrefetch2(at int64, pa, va, trigVA uint32, class bus.Class, depth int, overlap, widened bool, chain uint64) bool {
	if ms.l2.Lookup(pa, false) != nil {
		ms.st.PrefDroppedPresent++
		return false
	}
	paBase := lineBase(pa)
	if ms.inflight.get(paBase) != nil {
		ms.st.PrefDroppedInflight++
		return false
	}
	if ms.l2q.Full() {
		ms.st.PrefDroppedQueue++
		return false
	}
	if class == bus.ClassContent {
		if chain == 0 {
			ms.chainSeq++
			chain = ms.chainSeq
			ms.st.CDPChains++
		}
		b := depth
		if b >= stats.MaxChainDepth {
			b = stats.MaxChainDepth - 1
		}
		if b < 0 {
			b = 0
		}
		ms.st.CDPIssuedAtDepth[b]++
	} else {
		chain = 0
	}
	ms.reqID++
	req := ms.newRequest()
	req.ID, req.PABase, req.VABase, req.TrigVA = ms.reqID, paBase, lineBase(va), trigVA
	req.Class, req.Depth, req.Overlap, req.Widened, req.Enqueued = class, depth, overlap, widened, at
	req.Chain = chain
	if ms.tr.Enabled() {
		ms.tr.Emit(simtrace.Event{
			Kind: simtrace.KindIssue, Comp: simtrace.CompBus,
			Cycle: at, Addr: req.VABase, Addr2: paBase,
			Chain: chain, Depth: int16(depth), Class: uint8(class),
		})
	}
	ms.l2q.Enqueue(req)
	ms.inflight.put(paBase, req)
	ms.st.PrefIssued[srcOf(class)]++
	ms.pump(at)
	return true
}

// enqueueDemandReq inserts a demand-class request, squashing the
// lowest-priority queued prefetch when the L2 queue is full.
func (ms *MemSystem) enqueueDemandReq(at int64, req *bus.Request) {
	squashed, ok := ms.l2q.EnqueueDemand(req)
	if squashed != nil {
		ms.inflight.del(squashed.PABase)
		ms.st.PrefSquashed++
		ms.releaseRequest(squashed)
	}
	if !ok {
		// The L2 queue is full of demand requests — with a 128-entry
		// queue and a 48-entry load buffer this cannot happen; treat
		// as a model invariant violation.
		panic(fmt.Sprintf("sim: L2 queue full of demands at cycle %d", at))
	}
	ms.inflight.put(req.PABase, req)
	ms.pump(at)
}

// ---------------------------------------------------------------------------
// Bus scheduling

// pump moves requests from the L2 queue into the bus queue and starts a
// transfer if the bus is idle. If work remains while the bus is busy, a
// follow-up pump is scheduled for the bus-free time, so no request can be
// stranded (write-backs advance the bus clock without their own pump).
func (ms *MemSystem) pump(at int64) {
	if debugInvariants {
		ms.checkInvariants(at)
	}
	if ms.nextPumpAt == at {
		ms.nextPumpAt = 0
	}
	for !ms.busq.Full() && ms.l2q.Len() > 0 {
		ms.busq.Enqueue(ms.l2q.PopBest())
	}
	if ms.fsb.Idle(at) {
		ms.grant(at)
	}
	if (ms.busq.Len() > 0 || ms.l2q.Len() > 0) && !ms.fsb.Idle(at) {
		ms.schedulePump(ms.fsb.FreeAt())
	}
}

// schedulePump arms a pump event at cycle t unless an earlier or equal one
// is already pending.
func (ms *MemSystem) schedulePump(t int64) {
	if ms.nextPumpAt != 0 && ms.nextPumpAt <= t {
		return
	}
	ms.nextPumpAt = t
	ms.sched.schedule(t, event{kind: evPump})
}

// grant starts the highest-priority transfer at cycle at, or injects a bad
// prefetch when the limit study is active and the queues are empty.
func (ms *MemSystem) grant(at int64) {
	req := ms.busq.PopBest()
	if req == nil && ms.l2q.Len() > 0 {
		req = ms.l2q.PopBest()
	}
	if req == nil {
		if ms.cfg.InjectBadPrefetches && at != ms.lastInject {
			ms.lastInject = at
			req = ms.makeInjectedRequest()
		} else {
			return
		}
	}
	start, arrive := ms.fsb.Grant(at)
	req.Granted = start
	req.Arrive = arrive
	if debugInvariants && !req.Injected {
		ms.flying++
	}
	ms.sched.schedule(arrive, event{kind: evFill, req: req})
	ms.schedulePump(ms.fsb.FreeAt())
}

// makeInjectedRequest fabricates a pollution prefetch to a pseudo-random
// physical line (Section 3.5's limit study).
func (ms *MemSystem) makeInjectedRequest() *bus.Request {
	ms.injLCG = ms.injLCG*1664525 + 1013904223
	pa := lineBase(ms.injLCG)
	ms.reqID++
	ms.st.InjectedPrefetches++
	req := ms.newRequest()
	req.ID, req.PABase, req.VABase, req.TrigVA = ms.reqID, pa, pa, pa
	req.Class, req.Depth, req.Injected = bus.ClassContent, 3, true
	return req
}

// fillArrive completes one bus transaction: fill the L2 (and the L1 for
// demands), wake waiters, and hand a copy of the line to the content
// scanner.
func (ms *MemSystem) fillArrive(at int64, req *bus.Request) {
	// An injected request was never entered in the inflight table, and
	// its line may be one a real transaction holds there.
	if !req.Injected {
		ms.inflight.del(req.PABase)
		if debugInvariants {
			ms.flying--
		}
	}
	fillSlot := ms.reserveL2(at)
	_ = fillSlot // the fill consumes an L2 port slot; data is usable at `at`

	src := srcOf(req.Class)
	meta := cache.Line{
		Source:     src,
		Prefetched: req.Class.IsPrefetch(),
		Depth:      uint8(req.Depth),
		VA:         req.VABase,
		Dirty:      req.IsStore,
		Overlap:    req.Overlap,
		Chain:      req.Chain,
	}
	if req.PageWalk {
		meta = cache.Line{Source: cache.SrcDemand, VA: req.VABase}
	}
	if ms.tr.Enabled() {
		ms.tr.Emit(simtrace.Event{
			Kind: simtrace.KindFill, Comp: simtrace.CompCache,
			Cycle: at, Addr: req.VABase, Addr2: req.PABase,
			Chain: req.Chain, Depth: int16(req.Depth), Class: uint8(req.Class),
		})
	}
	evicted := ms.l2.Fill(req.PABase, meta)
	if evicted.Valid {
		if ms.tr.Enabled() {
			unused := uint64(0)
			if evicted.Prefetched {
				unused = 1
			}
			ms.tr.Emit(simtrace.Event{
				Kind: simtrace.KindEvict, Comp: simtrace.CompCache,
				Cycle: at, Addr: evicted.VA, Chain: evicted.Chain,
				Depth: int16(evicted.Depth), Class: uint8(evicted.Source), Arg: unused,
			})
		}
		if evicted.Prefetched {
			ms.st.PrefEvictedUnused[evicted.Source]++
			if evicted.Source == cache.SrcContent && ms.cdp != nil {
				ms.cdp.ResolvePrefetch(false)
			}
		}
		if evicted.Dirty {
			// Write-back consumes bus bandwidth but nothing waits on it.
			ms.fsb.Grant(at)
			ms.schedulePump(ms.fsb.FreeAt())
		}
	}
	if req.Class == bus.ClassDemand && !req.PageWalk {
		ms.l1.Fill(req.VABase, cache.Line{Source: cache.SrcDemand, VA: req.VABase, Dirty: req.IsStore})
	}
	for _, w := range req.Waiters {
		w(at)
	}
	if ms.cdp != nil && !req.PageWalk && !req.Injected && !req.Widened {
		ms.scanAndIssue(at, req.TrigVA, req.Depth, req.VABase, req.Chain)
	}
	ms.releaseRequest(req)
	ms.pump(at)
}
