package cpu

import (
	"fmt"

	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config sizes the core per Table 1.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	RetireWidth int
	ROBSize     int
	LoadBuf     int
	StoreBuf    int
	IntUnits    int
	MemUnits    int
	FPUnits     int
	// MispredictPenalty is the fetch-redirect penalty in cycles, applied
	// after a mispredicted branch resolves.
	MispredictPenalty int64
	// GshareBits is log2 of the predictor table (14 = 16K entries).
	GshareBits uint
	// FPLatency and IntLatency are execution latencies.
	IntLatency int64
	FPLatency  int64
}

// Validate checks the core geometry; cpu.New panics on what this rejects.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: non-positive pipeline width %+v", c)
	}
	if c.ROBSize <= 0 || c.LoadBuf <= 0 || c.StoreBuf <= 0 {
		return fmt.Errorf("cpu: non-positive buffer size %+v", c)
	}
	if c.IntUnits <= 0 || c.MemUnits <= 0 || c.FPUnits <= 0 {
		return fmt.Errorf("cpu: every functional-unit class needs at least one unit %+v", c)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: negative mispredict penalty %d", c.MispredictPenalty)
	}
	if c.GshareBits < 1 || c.GshareBits > 30 {
		return fmt.Errorf("cpu: gshare bits %d outside [1,30]", c.GshareBits)
	}
	if c.IntLatency <= 0 || c.FPLatency <= 0 {
		return fmt.Errorf("cpu: non-positive execution latency %+v", c)
	}
	return nil
}

// DefaultConfig is the 4 GHz machine of Table 1.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 3, IssueWidth: 3, RetireWidth: 3,
		ROBSize: 128, LoadBuf: 48, StoreBuf: 32,
		IntUnits: 3, MemUnits: 2, FPUnits: 1,
		MispredictPenalty: 28, GshareBits: 14,
		IntLatency: 1, FPLatency: 3,
	}
}

// MemPort is the memory system as seen by the core.
type MemPort interface {
	// Tick processes memory-system events up to and including cycle.
	Tick(cycle int64)
	// NextEvent returns the cycle of the earliest pending memory event,
	// or -1 when none (used to skip idle cycles).
	NextEvent() int64
	// Load issues a demand load; done is called exactly once with the
	// cycle at which the value is available. done may be invoked
	// synchronously (cache hit) or from a later Tick (miss).
	Load(cycle int64, va, pc uint32, done func(at int64))
	// Store issues a committed store; done is called when the store has
	// drained from the store buffer's perspective.
	Store(cycle int64, va, pc uint32, done func(at int64))
}

// Result summarises one run.
type Result struct {
	Cycles      int64
	Retired     uint64
	Branches    uint64
	Mispredicts uint64
	Loads       uint64
	Stores      uint64
}

// IPC returns retired µops per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

type entryState uint8

const (
	esEmpty entryState = iota
	esWaiting
	esReady
	esIssued
	esDone
)

// robEntry is one reorder-buffer slot. It holds no pointers, so fetch can
// reset it without write barriers.
//
// Wakeup lists are intrusive: a node is consumerSlot*2 + source index, so a
// consumer that reads the same producer through both sources sits on that
// producer's list twice, once per pending source. depHead starts the list of
// nodes waiting on this entry's result; depNext[i] links this entry's own
// source-i node into its producer's list. -1 ends a list.
type robEntry struct {
	op          trace.Op
	seq         uint64
	state       entryState
	mispredict  bool
	pendingSrcs int32
	depHead     int32
	depNext     [2]int32
}

type writerRef struct {
	slot  int32
	seq   uint64
	valid bool
}

type completion struct {
	at   int64
	slot int32
	seq  uint64
}

// completionHeap is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every completion into an `any` on Push — one
// heap allocation per issued µop, the single largest allocation source in
// the simulator. The (at, seq) order is total, so pop order is fully
// deterministic; equal-cycle completions are all drained within one
// complete() call, which makes their relative order unobservable anyway.
type completionHeap []completion

func (h completion) less(o completion) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].less(s[l]) {
			m = r
		}
		if !s[m].less(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

func (h completionHeap) peekAt() int64 { return h[0].at }

// Core runs traces against a memory port.
type Core struct {
	cfg Config
	bp  *Gshare
	st  *stats.Counters

	rob   []robEntry
	head  int32
	count int

	lastWriter [trace.NumRegs]writerRef
	readyQ     []int32
	completed  completionHeap

	// lane is the fast lane beside completed: completions due at laneAt,
	// which is always the cycle after the one that filled the lane. Most
	// completions are single-cycle ALU results, and an append here is far
	// cheaper than a heap push and pop. A completion due next cycle goes to
	// the heap instead when the lane still holds an earlier cycle's
	// completions (a fill fired inside Tick(X) completes at X+1 before the
	// lane's X entries have drained). Every completion of a cycle drains
	// before anything else happens in it, so which structure held one
	// cannot be observed.
	lane   []completion
	laneAt int64

	// loadDone and storeDone are memory-port completion callbacks built
	// once at construction. A per-load closure literal would escape (the
	// memory system stores it on miss) and cost one allocation per load;
	// the per-slot callback is safe because a ROB slot holds at most one
	// outstanding load, whose seq cannot change until it completes.
	loadDone  []func(at int64)
	storeDone func(at int64)

	outstandingLoads  int
	outstandingStores int

	fetchIdx          int
	nextSeq           uint64
	haltFetch         bool
	fetchBlockedUntil int64

	cycle int64
	res   Result

	// lastProgress is the last cycle in which the pipeline moved; the
	// stall watchdog in drive measures from it.
	lastProgress int64

	// OnRetire, if set, is called after each retired µop with the
	// running retired count and current cycle (warm-up detection). The
	// callback may set OnRetire to nil to unsubscribe once it has seen
	// what it needs; retirement accounting is batched while no observer
	// is attached.
	OnRetire func(retired uint64, cycle int64)

	// tr, when non-nil, receives ROB-stall events; robStallStart tracks
	// the cycle an ongoing full-ROB fetch stall began (0 = not stalled).
	// Tracing-only state: it is not part of CoreState.
	tr            *simtrace.Tracer
	robStallStart int64
}

// AttachTracer wires an event tracer into the core (nil detaches).
func (c *Core) AttachTracer(tr *simtrace.Tracer) { c.tr = tr }

// New builds a core. counters may be nil.
func New(cfg Config, st *stats.Counters) *Core {
	if cfg.ROBSize <= 0 || cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 || cfg.RetireWidth <= 0 {
		panic(fmt.Sprintf("cpu: bad config %+v", cfg))
	}
	if st == nil {
		st = &stats.Counters{}
	}
	c := &Core{
		cfg: cfg,
		bp:  NewGshare(cfg.GshareBits),
		st:  st,
		rob: make([]robEntry, cfg.ROBSize),
	}
	for i := range c.rob {
		c.rob[i].depHead = -1
	}
	c.loadDone = make([]func(at int64), cfg.ROBSize)
	for i := range c.loadDone {
		slot := int32(i)
		c.loadDone[i] = func(at int64) {
			c.markComplete(slot, c.rob[slot].seq, at)
		}
	}
	c.storeDone = func(int64) { c.outstandingStores-- }
	return c
}

// donePollEvery is how many loop iterations RunUntil lets pass between
// looks at its done channel: a stopped run ends within a fraction of a
// millisecond, and a run without a done channel never looks.
const donePollEvery = 1 << 12

// Run executes up to maxOps µops of tr (0 = all) and returns timing.
func (c *Core) Run(tr *trace.Trace, mp MemPort, maxOps int) Result {
	res, _ := c.RunUntil(nil, tr, mp, maxOps)
	return res
}

// RunUntil is Run that gives up once done is closed (nil never closes),
// reporting finished=false with a partial Result. Watching done only
// reads the channel, so a run that is not stopped is cycle-identical to
// Run.
func (c *Core) RunUntil(done <-chan struct{}, tr *trace.Trace, mp MemPort, maxOps int) (res Result, finished bool) {
	finished = c.drive(done, limitOps(tr, maxOps), mp, nil)
	c.res.Cycles = c.cycle
	if finished {
		c.st.Cycles = c.cycle
	}
	return c.res, finished
}

// limitOps returns the first maxOps µops of tr (0 = all).
func limitOps(tr *trace.Trace, maxOps int) []trace.Op {
	if maxOps > 0 && maxOps < len(tr.Ops) {
		return tr.Ops[:maxOps]
	}
	return tr.Ops
}

// drive steps the machine until every op is fetched and retired, and, when
// quiesced is non-nil, until stores have drained and quiesced reports the
// memory system empty too. It reports false if done closed first.
func (c *Core) drive(done <-chan struct{}, ops []trace.Op, mp MemPort, quiesced func() bool) bool {
	c.lastProgress = c.cycle
	polls := 0
	for c.fetchIdx < len(ops) || c.count > 0 ||
		quiesced != nil && (c.outstandingStores > 0 || !quiesced()) {
		if done != nil {
			if polls++; polls == donePollEvery {
				polls = 0
				select {
				case <-done:
					return false
				default:
				}
			}
		}
		c.step(ops, mp)
	}
	return true
}

// step simulates one cycle. A cycle in which nothing moved is followed by
// a jump to the cycle before the next one at which anything can happen:
// a completion, the end of a fetch redirect, or a memory event.
func (c *Core) step(ops []trace.Op, mp MemPort) {
	storesBefore := c.outstandingStores
	c.cycle++
	mp.Tick(c.cycle)
	progress := c.outstandingStores != storesBefore
	if c.complete() {
		progress = true
	}
	if c.retire(mp) {
		progress = true
	}
	if c.issue(mp) {
		progress = true
	}
	if c.fetch(ops) {
		progress = true
	}
	if progress {
		c.lastProgress = c.cycle
		return
	}
	next := int64(-1)
	consider := func(t int64) {
		if t > c.cycle && (next == -1 || t < next) {
			next = t
		}
	}
	if len(c.lane) > 0 {
		consider(c.laneAt)
	}
	if len(c.completed) > 0 {
		consider(c.completed.peekAt())
	}
	if !c.haltFetch && c.fetchBlockedUntil > c.cycle {
		consider(c.fetchBlockedUntil)
	}
	if t := mp.NextEvent(); t >= 0 {
		consider(t)
	}
	if next > c.cycle+1 {
		c.cycle = next - 1
	}
	if c.cycle-c.lastProgress > 5_000_000 {
		panic(fmt.Sprintf("cpu: no progress since cycle %d (rob %d, readyQ %d, loads %d, stores %d, fetch %d/%d)",
			c.lastProgress, c.count, len(c.readyQ), c.outstandingLoads, c.outstandingStores, c.fetchIdx, len(ops)))
	}
}

// complete drains every completion due by the current cycle, fast lane
// first, waking dependents.
func (c *Core) complete() bool {
	any := false
	if len(c.lane) > 0 && c.laneAt <= c.cycle {
		for _, comp := range c.lane {
			if c.finish(comp) {
				any = true
			}
		}
		c.lane = c.lane[:0]
	}
	for len(c.completed) > 0 && c.completed.peekAt() <= c.cycle {
		if c.finish(c.completed.pop()) {
			any = true
		}
	}
	return any
}

// finish completes one issued µop and wakes the µops waiting on it.
func (c *Core) finish(comp completion) bool {
	e := &c.rob[comp.slot]
	if e.seq != comp.seq || e.state != esIssued {
		return false // stale (should not happen, but be safe)
	}
	e.state = esDone
	if e.op.Kind == trace.KLoad {
		c.outstandingLoads--
	}
	if e.op.Kind == trace.KBranch && e.mispredict {
		c.haltFetch = false
		c.fetchBlockedUntil = c.cycle + c.cfg.MispredictPenalty
	}
	for node := e.depHead; node >= 0; {
		dep := node >> 1
		d := &c.rob[dep]
		node = d.depNext[node&1]
		d.pendingSrcs--
		if d.pendingSrcs == 0 && d.state == esWaiting {
			d.state = esReady
			c.readyQ = append(c.readyQ, dep)
		}
	}
	e.depHead = -1
	return true
}

// markComplete schedules completion of an issued entry at cycle at.
func (c *Core) markComplete(slot int32, seq uint64, at int64) {
	if at <= c.cycle {
		at = c.cycle + 1
	}
	comp := completion{at: at, slot: slot, seq: seq}
	if at == c.cycle+1 && (len(c.lane) == 0 || c.laneAt == at) {
		c.laneAt = at
		c.lane = append(c.lane, comp)
		return
	}
	c.completed.push(comp)
}

// retire commits completed µops in order. Retirement accounting is batched:
// the counters are flushed once per retire burst rather than incremented
// per µop, except while an OnRetire observer is attached (warm-up only),
// where the flush precedes each callback so the warm-up reset sees exact
// counts.
func (c *Core) retire(mp MemPort) bool {
	any := false
	var retired, stores uint64
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if e.state != esDone {
			break
		}
		if e.op.Kind == trace.KStore {
			if c.outstandingStores >= c.cfg.StoreBuf {
				break // store buffer full: stall retirement
			}
			c.outstandingStores++
			stores++
			mp.Store(c.cycle, e.op.Addr, e.op.PC, c.storeDone)
		}
		e.state = esEmpty
		if c.head++; int(c.head) == len(c.rob) {
			c.head = 0
		}
		c.count--
		c.res.Retired++
		retired++
		if c.OnRetire != nil {
			c.st.AddRetired(retired, stores)
			retired, stores = 0, 0
			c.OnRetire(c.res.Retired, c.cycle)
		}
		any = true
	}
	c.st.AddRetired(retired, stores)
	return any
}

// issue selects ready µops oldest-first, bounded by issue width, functional
// units and the load buffer.
func (c *Core) issue(mp MemPort) bool {
	intLeft, memLeft, fpLeft := c.cfg.IntUnits, c.cfg.MemUnits, c.cfg.FPUnits
	any := false
	for issued := 0; issued < c.cfg.IssueWidth; issued++ {
		best, bestSeq := -1, uint64(0)
		for qi, slot := range c.readyQ {
			e := &c.rob[slot]
			ok := false
			switch e.op.Kind {
			case trace.KInt, trace.KBranch:
				ok = intLeft > 0
			case trace.KFP:
				ok = fpLeft > 0
			case trace.KLoad:
				ok = memLeft > 0 && c.outstandingLoads < c.cfg.LoadBuf
			case trace.KStore:
				ok = memLeft > 0
			}
			if !ok {
				continue
			}
			if best == -1 || e.seq < bestSeq {
				best, bestSeq = qi, e.seq
			}
		}
		if best == -1 {
			break
		}
		slot := c.readyQ[best]
		c.readyQ[best] = c.readyQ[len(c.readyQ)-1]
		c.readyQ = c.readyQ[:len(c.readyQ)-1]
		e := &c.rob[slot]
		e.state = esIssued
		any = true
		switch e.op.Kind {
		case trace.KInt:
			intLeft--
			c.markComplete(slot, e.seq, c.cycle+c.cfg.IntLatency)
		case trace.KBranch:
			intLeft--
			c.markComplete(slot, e.seq, c.cycle+c.cfg.IntLatency)
		case trace.KFP:
			fpLeft--
			c.markComplete(slot, e.seq, c.cycle+c.cfg.FPLatency)
		case trace.KLoad:
			memLeft--
			c.outstandingLoads++
			c.res.Loads++
			mp.Load(c.cycle, e.op.Addr, e.op.PC, c.loadDone[slot])
		case trace.KStore:
			memLeft--
			c.res.Stores++
			// Address generation only; memory traffic happens at retire.
			c.markComplete(slot, e.seq, c.cycle+c.cfg.IntLatency)
		}
	}
	return any
}

// fetch brings µops into the ROB, predicting branches and halting at a
// mispredicted one until it resolves.
func (c *Core) fetch(ops []trace.Op) bool {
	if c.tr.Enabled() && c.fetchIdx < len(ops) {
		// Edge-triggered ROB-stall tracking: record when fetch first finds
		// the ROB full, emit one event with the stall length once a slot
		// frees up.
		if c.count >= c.cfg.ROBSize {
			if c.robStallStart == 0 {
				c.robStallStart = c.cycle
			}
		} else if c.robStallStart != 0 {
			c.tr.Emit(simtrace.Event{
				Kind: simtrace.KindROBStall, Comp: simtrace.CompCore,
				Cycle: c.cycle, Arg: uint64(c.cycle - c.robStallStart),
			})
			c.robStallStart = 0
		}
	}
	any := false
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchIdx >= len(ops) || c.count >= c.cfg.ROBSize ||
			c.haltFetch || c.cycle < c.fetchBlockedUntil {
			break
		}
		op := ops[c.fetchIdx]
		c.fetchIdx++
		slot := c.head + int32(c.count)
		if int(slot) >= len(c.rob) {
			slot -= int32(len(c.rob))
		}
		c.count++
		c.nextSeq++
		e := &c.rob[slot]
		e.op = op
		e.seq = c.nextSeq
		e.mispredict = false
		e.pendingSrcs = 0

		for i, src := range [2]uint8{op.Src1, op.Src2} {
			if src == trace.NoReg || src >= trace.NumRegs {
				continue
			}
			lw := c.lastWriter[src]
			if !lw.valid {
				continue
			}
			p := &c.rob[lw.slot]
			if p.seq != lw.seq || p.state == esDone || p.state == esEmpty {
				continue
			}
			e.depNext[i] = p.depHead
			p.depHead = slot<<1 | int32(i)
			e.pendingSrcs++
		}
		if op.Dst != trace.NoReg && op.Dst < trace.NumRegs {
			c.lastWriter[op.Dst] = writerRef{slot: slot, seq: e.seq, valid: true}
		}
		if e.pendingSrcs == 0 {
			e.state = esReady
			c.readyQ = append(c.readyQ, slot)
		} else {
			e.state = esWaiting
		}
		any = true

		if op.Kind == trace.KBranch {
			c.res.Branches++
			pred := c.bp.Predict(op.PC)
			c.bp.Update(op.PC, op.Taken)
			if pred != op.Taken {
				c.res.Mispredicts++
				e.mispredict = true
				c.haltFetch = true
				break
			}
		}
	}
	return any
}
