// Package trace defines the µop trace format the performance simulator
// executes. A trace plays the role of the paper's LIT (Long Instruction
// Trace): not a bare address stream but a checkpoint — a memory image plus
// the correct-path µop sequence, with enough register-dependence information
// for an out-of-order timing model to reconstruct the program's true
// critical path (pointer-chasing loads must serialise through their
// producing loads).
package trace

import "fmt"

// Kind classifies a µop.
type Kind uint8

const (
	// KInt is a single-cycle integer ALU µop.
	KInt Kind = iota
	// KFP is a floating-point µop (3-cycle latency in the model).
	KFP
	// KLoad reads the 32-bit word at Addr.
	KLoad
	// KStore writes the 32-bit word at Addr.
	KStore
	// KBranch is a conditional branch; Taken records the correct-path
	// outcome used to train and check the branch predictor.
	KBranch
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFP:
		return "fp"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NumRegs is the size of the architectural register file visible in traces.
const NumRegs = 16

// NoReg marks an unused register operand.
const NoReg uint8 = 0xFF

// Op is one µop. 20 bytes; traces of a few million µops stay cheap.
type Op struct {
	PC    uint32
	Addr  uint32 // effective virtual address for loads/stores
	Kind  Kind
	Src1  uint8 // NoReg if unused
	Src2  uint8 // NoReg if unused
	Dst   uint8 // NoReg if none
	Taken bool  // branches only
}

// Trace is an in-memory µop sequence.
type Trace struct {
	Ops []Op
}

// Len returns the number of µops.
func (t *Trace) Len() int { return len(t.Ops) }

// Builder accumulates a trace with convenience emitters. PCs are synthetic:
// callers pin a PC per static emission site so the stride prefetcher and
// gshare see stable instruction identities.
type Builder struct {
	t Trace
}

// NewBuilder returns an empty trace builder with room for capHint µops.
// A generator that knows its budget passes it (plus its overshoot) so the
// trace is allocated once instead of regrown as it fills; 0 means no hint.
func NewBuilder(capHint int) *Builder {
	return &Builder{t: Trace{Ops: make([]Op, 0, capHint)}}
}

// Emit appends a raw µop.
func (b *Builder) Emit(op Op) { b.t.Ops = append(b.t.Ops, op) }

// Int appends an integer ALU µop dst = f(src1, src2).
func (b *Builder) Int(pc uint32, dst, src1, src2 uint8) {
	b.Emit(Op{PC: pc, Kind: KInt, Dst: dst, Src1: src1, Src2: src2})
}

// FP appends a floating-point µop.
func (b *Builder) FP(pc uint32, dst, src1, src2 uint8) {
	b.Emit(Op{PC: pc, Kind: KFP, Dst: dst, Src1: src1, Src2: src2})
}

// Load appends a load of addr into dst, address-dependent on addrSrc
// (NoReg if the address needs no register, e.g. absolute).
func (b *Builder) Load(pc uint32, dst, addrSrc uint8, addr uint32) {
	b.Emit(Op{PC: pc, Kind: KLoad, Dst: dst, Src1: addrSrc, Src2: NoReg, Addr: addr})
}

// Store appends a store of valSrc to addr, address-dependent on addrSrc.
func (b *Builder) Store(pc uint32, valSrc, addrSrc uint8, addr uint32) {
	b.Emit(Op{PC: pc, Kind: KStore, Dst: NoReg, Src1: valSrc, Src2: addrSrc, Addr: addr})
}

// Branch appends a conditional branch whose outcome depends on condSrc.
func (b *Builder) Branch(pc uint32, condSrc uint8, taken bool) {
	b.Emit(Op{PC: pc, Kind: KBranch, Dst: NoReg, Src1: condSrc, Src2: NoReg, Taken: taken})
}

// Len returns the number of µops emitted so far.
func (b *Builder) Len() int { return len(b.t.Ops) }

// Trace finalises and returns the built trace. The builder remains usable;
// further emissions extend the same trace.
func (b *Builder) Trace() *Trace { return &b.t }

// Mix summarises the µop composition of a trace.
type Mix struct {
	Int, FP, Load, Store, Branch int
}

// Total returns the µop count.
func (m Mix) Total() int { return m.Int + m.FP + m.Load + m.Store + m.Branch }

// MixOf tallies the composition of t.
func MixOf(t *Trace) Mix {
	var m Mix
	for i := range t.Ops {
		switch t.Ops[i].Kind {
		case KInt:
			m.Int++
		case KFP:
			m.FP++
		case KLoad:
			m.Load++
		case KStore:
			m.Store++
		case KBranch:
			m.Branch++
		}
	}
	return m
}

func (m Mix) String() string {
	return fmt.Sprintf("mix{int:%d fp:%d ld:%d st:%d br:%d}", m.Int, m.FP, m.Load, m.Store, m.Branch)
}
