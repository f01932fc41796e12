// Package workloads synthesises the fifteen benchmarks of Table 2. The
// paper drives its simulator with proprietary LIT checkpoints of commercial
// applications; those are unavailable, so each benchmark here is a
// generator that (a) materialises realistic linked data structures — with
// genuine pointers — in a simulated address space, and (b) emits a µop
// trace of a traversal/processing loop over them, with register dependences
// that reconstruct the program's critical path.
//
// The mixes are tuned so the population spans the paper's observed ranges:
// L2 MPTU from ~0.1 (b2c) to ~20+ (verilog-gate), and content-prefetcher
// sensitivity from ~0 (stride/compute-bound) to large (pointer-chasing with
// per-record work).
//
// All pointer-bearing structures live inside one 16 MiB arena: with 8
// compare bits, that is exactly the prefetchable range of the virtual
// address matching heuristic, mirroring how the paper's allocator
// concentrates related heap data.
package workloads

import (
	"math/rand"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Arena placement: pointer-rich heap in one 16 MiB top-byte region;
// stride-only arrays in a separate region so they do not inflate the
// content prefetcher's coverage.
const (
	heapBase  uint32 = 0x1000_0000
	heapLimit uint32 = 0x1100_0000
	dataBase  uint32 = 0x4000_0000
	dataLimit uint32 = 0x5000_0000
	// The low arena sits where its addresses' upper compare bits are all
	// zeros (static/global data in IA-32 binaries), and the high arena
	// where they are all ones (stack-like allocations). Pointers here are
	// only predictable through the matching heuristic's *filter bits*
	// (Figure 2's extreme regions).
	lowBase   uint32 = 0x0010_0000
	lowLimit  uint32 = 0x0040_0000
	highBase  uint32 = 0xFF10_0000
	highLimit uint32 = 0xFFF0_0000
)

// GenConfig scales a workload build.
type GenConfig struct {
	// Ops is the approximate µop budget of the trace.
	Ops int
	// Seed makes generation deterministic.
	Seed int64
}

// Gen is the emission context handed to each benchmark builder.
type Gen struct {
	AS    *mem.AddressSpace
	Heap  *heap.Allocator // pointer-rich arena (prefetchable range)
	Data  *heap.Allocator // stride/data arena
	Low   *heap.Allocator // all-zeros-upper-bits arena (globals)
	High  *heap.Allocator // all-ones-upper-bits arena (stack-like)
	B     *trace.Builder
	Rng   *rand.Rand
	Ops   int // budget
	Instr int // logical instruction count (Table 2 reporting)
}

// traceSlack is how far past its budget a generator's trace may run. Done
// is checked between emission loops, not inside every one, so the last
// iteration finishes after the budget is met; the longest such tail is
// proE's 7,020 µops (its 5,000-µop FP kernel plus its 2,000-µop integer
// kernel). Below ~30k µops the warm-up passes alone can exceed the budget
// by more than this, and the trace regrows there.
const traceSlack = 8 << 10

// traceReserve is the trace capacity newGen reserves for an ops budget.
func traceReserve(ops int) int { return ops + traceSlack }

func newGen(cfg GenConfig) *Gen {
	as := mem.NewAddressSpace()
	return &Gen{
		AS:   as,
		Heap: heap.NewAllocator(as, heapBase, heapLimit),
		Data: heap.NewAllocator(as, dataBase, dataLimit),
		Low:  heap.NewAllocator(as, lowBase, lowLimit),
		High: heap.NewAllocator(as, highBase, highLimit),
		B:    trace.NewBuilder(traceReserve(cfg.Ops)),
		Rng:  rand.New(rand.NewSource(cfg.Seed)),
		Ops:  cfg.Ops,
	}
}

// Done reports whether the µop budget is exhausted.
func (g *Gen) Done() bool { return g.B.Len() >= g.Ops }

// instr counts n logical instructions.
func (g *Gen) instr(n int) { g.Instr += n }

// Registers by convention: r1 chase pointer, r2 address temp, r3 data
// value, r4 work accumulator, r5 FP-ish accumulator, r6 index.
const (
	rChase = 1
	rAddr  = 2
	rVal   = 3
	rAcc   = 4
	rFP    = 5
	rIdx   = 6
)

// Compute emits n integer µops on the accumulator (1 instr each).
func (g *Gen) Compute(pcBase uint32, n int) {
	for i := 0; i < n; i++ {
		g.B.Int(pcBase+uint32(i%8)*4, rAcc, rAcc, trace.NoReg)
	}
	g.instr(n)
}

// ComputeFP emits n floating-point µops (1 instr each).
func (g *Gen) ComputeFP(pcBase uint32, n int) {
	for i := 0; i < n; i++ {
		g.B.FP(pcBase+uint32(i%4)*4, rFP, rFP, trace.NoReg)
	}
	g.instr(n)
}

// WorkOn emits n integer µops dependent on the loaded value in rVal,
// modelling per-record processing that serialises behind the load.
func (g *Gen) WorkOn(pcBase uint32, n int) {
	for i := 0; i < n; i++ {
		g.B.Int(pcBase+uint32(i%8)*4, rVal, rVal, trace.NoReg)
	}
	g.instr(n)
}

// LoopBranch emits the highly predictable backward branch that closes an
// iteration.
func (g *Gen) LoopBranch(pc uint32, taken bool) {
	g.B.Branch(pc, rAcc, taken)
	g.instr(1)
}

// DataBranch emits a branch whose outcome is a function of the value in
// rVal — resolves only after the producing load and mispredicts at the
// given approximate rate (driven by the value's low bits).
func (g *Gen) DataBranch(pc uint32, value uint32, biasedTaken bool) {
	taken := value&1 == 1
	if biasedTaken {
		taken = value&3 != 0 // ~75% taken: partially predictable
	}
	g.B.Branch(pc, rVal, taken)
	g.instr(1)
}

// WalkOpts tunes a linked-structure traversal.
type WalkOpts struct {
	// PayloadOff, when non-zero... see Payloads: nodes carry a pointer at
	// this offset to a scattered block that is dereferenced per node.
	PayloadOff uint32
	Payloads   map[uint32]uint32 // node -> payload block
	// PayloadLines dereferences this many sequential lines of the
	// payload block (multi-line records: the "wider" prefetching case).
	PayloadLines int
	// Work is the number of serialising integer µops per node.
	Work int
	// DataBranch adds a per-node branch on the payload value.
	DataBranch bool
	// Stores writes back to the node (record update) every N nodes
	// (0 = never).
	StoreEvery int
	// MaxNodes bounds the traversal (0 = whole structure).
	MaxNodes int
	// ChainProbes bounds hash-chain probing: the lookup walks about
	// ChainProbes nodes before "matching" (0 selects a short 1-4 probe
	// default).
	ChainProbes int
	// Cursor, when non-nil, makes bounded walks resume where the last
	// one stopped (wrapping at the tail), so successive MaxNodes-bounded
	// traversals cover the whole structure instead of its head.
	Cursor *int
}

// AttachPayloads allocates scattered blockSize-byte payload blocks in the
// pointer arena, plants a pointer to one at node+off for every node, and
// returns the node→block map.
func (g *Gen) AttachPayloads(nodes []uint32, off uint32, blockSize uint32) map[uint32]uint32 {
	blocks := make([]uint32, len(nodes))
	for i := range blocks {
		blocks[i] = g.Heap.Alloc(blockSize, 64)
		for b := uint32(0); b+4 <= blockSize; b += 4 {
			g.AS.Img.Write32(blocks[i]+b, g.Rng.Uint32()|1) // non-pointer-looking odd values
		}
	}
	g.Rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	m := make(map[uint32]uint32, len(nodes))
	for i, n := range nodes {
		m[n] = blocks[i]
		g.AS.Img.Write32(n+off, blocks[i])
	}
	return m
}

// visitNode emits the per-node body shared by the walkers: optional payload
// dereference (with multi-line records), work, data-dependent branch and
// store.
func (g *Gen) visitNode(pcBase uint32, node uint32, idx int, o WalkOpts) {
	if o.PayloadOff != 0 && o.Payloads != nil {
		pb := o.Payloads[node]
		g.B.Load(pcBase+0x04, rAddr, rChase, node+o.PayloadOff) // record pointer
		lines := o.PayloadLines
		if lines <= 0 {
			lines = 1
		}
		for ln := 0; ln < lines; ln++ {
			g.B.Load(pcBase+0x08+uint32(ln)*4, rVal, rAddr, pb+uint32(ln)*64)
		}
		g.instr(1 + lines)
		if o.DataBranch {
			g.DataBranch(pcBase+0x30, g.AS.Img.Read32(pb), true)
		}
	}
	if o.Work > 0 {
		g.WorkOn(pcBase+0x40, o.Work)
	}
	if o.StoreEvery > 0 && idx%o.StoreEvery == 0 {
		g.B.Store(pcBase+0x60, rVal, rChase, node+16)
		g.instr(1)
	}
}

// WalkList traverses l once (or MaxNodes nodes), chasing the next pointers
// through rChase. Returns the number of nodes visited.
func (g *Gen) WalkList(pcBase uint32, l *heap.List, o WalkOpts) int {
	cur := l.Head
	pos := 0
	if o.Cursor != nil && len(l.Nodes) > 0 {
		pos = *o.Cursor % len(l.Nodes)
		cur = l.Nodes[pos]
		// Re-establish the chase register at the resume point (an
		// address computation, as a real iterator would perform).
		g.B.Int(pcBase+0x78, rChase, rChase, trace.NoReg)
		g.instr(1)
	}
	visited := 0
	for cur != 0 && !g.Done() {
		if o.MaxNodes > 0 && visited >= o.MaxNodes {
			break
		}
		next := g.AS.Img.Read32(cur + l.NextOff)
		g.visitNode(pcBase, cur, visited, o)
		g.B.Load(pcBase, rChase, rChase, cur+l.NextOff) // the chase
		g.instr(1)
		g.LoopBranch(pcBase+0x7C, next != 0)
		cur = next
		pos++
		visited++
	}
	if o.Cursor != nil && len(l.Nodes) > 0 {
		*o.Cursor = pos % len(l.Nodes)
	}
	return visited
}

// SearchTree descends tr for the given key, emitting the compare/branch/
// child-load sequence per level. Returns the number of levels touched.
func (g *Gen) SearchTree(pcBase uint32, tr *heap.Tree, key uint32, o WalkOpts) int {
	cur := tr.Root
	levels := 0
	for cur != 0 && !g.Done() {
		ck := g.AS.Img.Read32(cur + tr.KeyOff)
		g.B.Load(pcBase, rVal, rChase, cur+tr.KeyOff) // key load
		g.instr(1)
		if o.Work > 0 {
			g.WorkOn(pcBase+0x40, o.Work)
		}
		if ck == key {
			g.B.Branch(pcBase+0x10, rVal, false) // exit branch, data-dep
			g.instr(1)
			levels++
			break
		}
		var off uint32
		if key < ck {
			off = tr.LeftOff
		} else {
			off = tr.RightOff
		}
		// The direction branch depends on the loaded key: essentially
		// unpredictable for random searches.
		g.B.Branch(pcBase+0x10, rVal, key < ck)
		g.B.Load(pcBase+0x14, rChase, rChase, cur+off) // child chase
		g.instr(2)
		cur = g.AS.Img.Read32(cur + off)
		levels++
	}
	return levels
}

// LookupHash probes h for a pseudo-random bucket, walking the chain with a
// key compare per node and the full record visit (payload, work, store) on
// the matched node only, like a real lookup. Returns nodes touched.
func (g *Gen) LookupHash(pcBase uint32, h *heap.Hash, o WalkOpts) int {
	b := g.Rng.Intn(h.Buckets)
	slot := h.BucketBase + uint32(b)*mem.WordSize
	// Index computation then bucket-head load.
	g.B.Int(pcBase, rIdx, rIdx, trace.NoReg)
	g.B.Load(pcBase+0x04, rChase, rIdx, slot)
	g.instr(2)
	cur := g.AS.Img.Read32(slot)
	touched := 0
	want := 1 + g.Rng.Intn(4) // a short probe, like a sparse chain
	if o.ChainProbes > 0 {
		want = o.ChainProbes - 1 + g.Rng.Intn(3)
	}
	for cur != 0 && !g.Done() {
		next := g.AS.Img.Read32(cur + h.NextOff)
		last := next == 0 || touched+1 >= want
		// Key compare on every probed node (same line as the next
		// pointer), then the compare branch. Wide index nodes also read
		// a field from their second line (full-key compare), which the
		// prefetcher's next-line widening covers.
		g.B.Load(pcBase+0x10, rVal, rChase, cur+h.KeyOff)
		if h.NodeSize >= 128 {
			g.B.Load(pcBase+0x18, rVal, rChase, cur+68)
			g.instr(1)
		}
		g.B.Branch(pcBase+0x14, rVal, !last)
		g.instr(2)
		if o.Work > 0 && !last {
			g.WorkOn(pcBase+0x40, o.Work/4)
		}
		if last {
			g.visitNode(pcBase+0x20, cur, touched, o)
			touched++
			break
		}
		g.B.Load(pcBase+0x08, rChase, rChase, cur+h.NextOff)
		g.instr(1)
		cur = next
		touched++
	}
	return touched
}

// ArrayPass streams over arr once with work per element: the stride
// prefetcher's workload. Elements are loaded line by line.
func (g *Gen) ArrayPass(pcBase uint32, arr *heap.Array, work int) {
	for i := 0; i < arr.Elems && !g.Done(); i++ {
		g.B.Load(pcBase, rVal, trace.NoReg, arr.Elem(i))
		g.instr(1)
		if work > 0 {
			g.WorkOn(pcBase+0x10, work)
		}
		g.LoopBranch(pcBase+0x50, i+1 < arr.Elems)
	}
}

// TouchLines emits one independent load per cache line of [base,
// base+size): a warm-up pass that pulls a structure into the caches before
// measurement starts, so resident-working-set benchmarks show steady-state
// (not compulsory) miss behaviour, per the Section 2.2 methodology.
func (g *Gen) TouchLines(pcBase uint32, base, size uint32) {
	n := 0
	for a := base &^ 63; a < base+size; a += 64 {
		g.B.Load(pcBase, rVal, trace.NoReg, a)
		n++
	}
	g.instr(n)
}

// TouchList warms every node (and optional payload block) of a list.
func (g *Gen) TouchList(pcBase uint32, l *heap.List, payloads map[uint32]uint32, payloadSize uint32) {
	for _, n := range l.Nodes {
		g.TouchLines(pcBase, n, l.NodeSize)
		if payloads != nil {
			g.TouchLines(pcBase+4, payloads[n], payloadSize)
		}
	}
}

// RandomArrayTouch loads n random elements of arr (irregular, non-pointer
// misses that neither prefetcher covers — Figure 10's residual).
func (g *Gen) RandomArrayTouch(pcBase uint32, arr *heap.Array, n, work int) {
	for i := 0; i < n && !g.Done(); i++ {
		e := g.Rng.Intn(arr.Elems)
		g.B.Int(pcBase, rIdx, rIdx, trace.NoReg)
		g.B.Load(pcBase+0x04, rVal, rIdx, arr.Elem(e))
		g.instr(2)
		if work > 0 {
			g.WorkOn(pcBase+0x10, work)
		}
	}
}
