// Pangloss-style delta predictor (Leventhal & Pham-style entry in the 2019
// DPC3 championship, arXiv 1906.00877): instead of a Markov chain over
// absolute miss addresses (the Joseph & Grunwald STAB, whose table grows
// with the footprint), Pangloss compresses the chain into *delta*
// transitions — "after a miss delta of d1, the next delta is usually d2" —
// which needs only a small fixed table regardless of working-set size. On
// each L2 miss the engine records the (previous delta → current delta)
// transition with a saturating confidence counter, then walks the highest-
// confidence transitions forward from the current address to issue a short
// chain of prefetches. A constant-stride stream self-loops (d → d) and
// degenerates into a stride prefetcher; irregular-but-repeating patterns
// (pointer chases with stable layouts) are captured as delta cycles.
package prefetch

import (
	"fmt"
	"math/bits"
)

// PanglossConfig sizes the delta-transition table.
type PanglossConfig struct {
	// Rows is the number of transition rows, indexed by a hash of the
	// previous delta. Must be a power of two.
	Rows int
	// Slots is the number of successor-delta slots per row.
	Slots int
	// Degree bounds the prediction chain walked from each miss.
	Degree int
	// MinConfidence is the slot confidence required before a transition
	// is trusted for prediction.
	MinConfidence uint8
	// MaxConfidence saturates the per-slot confidence counters.
	MaxConfidence uint8
}

// Validate checks the table geometry; NewPangloss panics on what this
// rejects.
func (c PanglossConfig) Validate() error {
	if c.Rows <= 0 || c.Rows&(c.Rows-1) != 0 {
		return fmt.Errorf("prefetch: pangloss rows %d not a positive power of two", c.Rows)
	}
	if c.Slots <= 0 || c.Degree <= 0 {
		return fmt.Errorf("prefetch: bad pangloss config %+v", c)
	}
	if c.MinConfidence == 0 || c.MaxConfidence < c.MinConfidence {
		return fmt.Errorf("prefetch: bad pangloss confidence window [%d,%d]", c.MinConfidence, c.MaxConfidence)
	}
	return nil
}

// New builds the delta predictor.
func (c PanglossConfig) New() Prefetcher { return NewPangloss(c) }

// Stream: the delta predictor trains on the L2 demand-miss stream.
func (c PanglossConfig) Stream() Stream { return StreamL2 }

// DefaultPanglossConfig is a deliberately small table — 256 rows × 4 slots
// is 4 KiB-class hardware, the compression the paper claims over an
// address-keyed Markov table.
var DefaultPanglossConfig = PanglossConfig{
	Rows: 256, Slots: 4, Degree: 4, MinConfidence: 2, MaxConfidence: 15,
}

type panglossSlot struct {
	delta int32
	conf  uint8
	valid bool
}

// Pangloss is the compressed Markov-chain delta prefetcher.
type Pangloss struct {
	cfg      PanglossConfig
	table    []panglossSlot // Rows × Slots, row-major
	rowShift uint           // 32 - log2(Rows), derived from cfg
	enabled  bool

	lastVA    uint32
	lastDelta int32
	haveLast  bool
	haveDelta bool

	observed uint64
	issued   uint64
}

// NewPangloss builds a delta predictor. Panics on invalid geometry.
func NewPangloss(cfg PanglossConfig) *Pangloss {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Pangloss{
		cfg:      cfg,
		table:    make([]panglossSlot, cfg.Rows*cfg.Slots),
		rowShift: uint(33 - bits.Len(uint(cfg.Rows))),
		enabled:  true,
	}
}

var _ Prefetcher = (*Pangloss)(nil)

// Config returns the table geometry.
func (p *Pangloss) Config() PanglossConfig { return p.cfg }

// Name is the engine's registry name.
func (p *Pangloss) Name() string { return "pangloss" }

// Stream: deltas are learned from the L2 demand-miss stream, like the STAB
// it compresses.
func (p *Pangloss) Stream() Stream { return StreamL2 }

// Translate: modelled post-translation; predictions consult the page map.
func (p *Pangloss) Translate() TranslateVia { return TranslateDirect }

// SetEnabled toggles issue; transition training continues while disabled.
func (p *Pangloss) SetEnabled(enabled bool) { p.enabled = enabled }

// Counters reports the engine's lifetime counters.
func (p *Pangloss) Counters() Counters {
	return Counters{Observed: p.observed, Issued: p.issued}
}

// Reset reverts to the just-constructed state.
func (p *Pangloss) Reset() {
	for i := range p.table {
		p.table[i] = panglossSlot{}
	}
	p.lastVA, p.lastDelta = 0, 0
	p.haveLast, p.haveDelta = false, false
	p.observed, p.issued = 0, 0
}

func (p *Pangloss) String() string {
	return fmt.Sprintf("pangloss{%dx%d deltas, degree %d}", p.cfg.Rows, p.cfg.Slots, p.cfg.Degree)
}

// rowOf hashes a delta to its transition row. Fibonacci multiplicative
// hash keeping the HIGH bits: cache-line deltas are all multiples of 64,
// so masking the product's low bits would collapse them into a handful of
// rows (row 0 for every line delta when Rows ≤ 64).
func (p *Pangloss) rowOf(delta int32) int {
	return int((uint32(delta) * 0x9E3779B1) >> p.rowShift)
}

// bestFrom returns the highest-confidence successor delta recorded for
// prev, or (0, false) when no slot clears MinConfidence. First slot wins
// ties, keeping prediction deterministic.
func (p *Pangloss) bestFrom(prev int32) (int32, bool) {
	row := p.rowOf(prev) * p.cfg.Slots
	bestConf := uint8(0)
	bestDelta := int32(0)
	for i := 0; i < p.cfg.Slots; i++ {
		s := &p.table[row+i]
		if s.valid && s.conf > bestConf {
			bestConf = s.conf
			bestDelta = s.delta
		}
	}
	if bestConf < p.cfg.MinConfidence {
		return 0, false
	}
	return bestDelta, true
}

// ObserveMiss trains on one L2 demand miss (line address) and returns the
// predicted lines — the registry-free spelling of Observe, mirroring the
// other engines.
func (p *Pangloss) ObserveMiss(line uint32) []uint32 {
	return p.Observe(Event{VA: line}, nil)
}

// Observe records the (previous delta → current delta) transition and
// walks the confident-transition chain forward from the miss address,
// appending up to Degree predicted line addresses to dst.
//
// simlint:hotpath
func (p *Pangloss) Observe(ev Event, dst []uint32) []uint32 {
	p.observed++
	va := ev.VA
	if !p.haveLast {
		p.lastVA, p.haveLast = va, true
		return dst
	}
	d := int32(va - p.lastVA)
	p.lastVA = va
	if d == 0 {
		return dst
	}

	// Train: strengthen the lastDelta → d slot, or claim the weakest slot
	// in the row (first minimum wins; deterministic replacement).
	if p.haveDelta {
		row := p.rowOf(p.lastDelta) * p.cfg.Slots
		hit := false
		for i := 0; i < p.cfg.Slots; i++ {
			s := &p.table[row+i]
			if s.valid && s.delta == d {
				if s.conf < p.cfg.MaxConfidence {
					s.conf++
				}
				hit = true
				break
			}
		}
		if !hit {
			victim := row
			for i := 1; i < p.cfg.Slots; i++ {
				s := &p.table[row+i]
				if !s.valid {
					victim = row + i
					break
				}
				if s.conf < p.table[victim].conf {
					victim = row + i
				}
			}
			p.table[victim].delta = d
			p.table[victim].conf = 1
			p.table[victim].valid = true
		}
	}
	p.lastDelta, p.haveDelta = d, true

	if !p.enabled {
		return dst
	}
	// Predict: follow the most-confident transitions forward. A constant
	// stride self-loops here and issues Degree consecutive lines.
	addr := va
	cur := d
	for k := 0; k < p.cfg.Degree; k++ {
		next, ok := p.bestFrom(cur)
		if !ok {
			break
		}
		addr += uint32(next)
		dst = append(dst, addr)
		p.issued++
		cur = next
	}
	return dst
}

// panglossState is the delta predictor's checkpoint payload.
type panglossState struct {
	LastVA    uint32
	LastDelta int32
	HaveLast  bool
	HaveDelta bool
	Observed  uint64
	Issued    uint64
	Slots     []panglossSlotState // Rows × Slots, row-major
}

type panglossSlotState struct {
	Delta int32
	Conf  uint8
	Valid bool
}

// MarshalState serialises the transition table for checkpointing.
func (p *Pangloss) MarshalState() ([]byte, error) {
	st := panglossState{
		LastVA: p.lastVA, LastDelta: p.lastDelta,
		HaveLast: p.haveLast, HaveDelta: p.haveDelta,
		Observed: p.observed, Issued: p.issued,
		Slots: make([]panglossSlotState, len(p.table)),
	}
	for i, s := range p.table {
		st.Slots[i] = panglossSlotState{Delta: s.delta, Conf: s.conf, Valid: s.valid}
	}
	return EncodeState(st)
}

// UnmarshalState restores a MarshalState payload into a same-geometry
// engine.
func (p *Pangloss) UnmarshalState(data []byte) error {
	var st panglossState
	if err := DecodeState(data, &st); err != nil {
		return err
	}
	if len(st.Slots) != len(p.table) {
		return fmt.Errorf("prefetch: pangloss state has %d slots, table has %d (geometry mismatch)",
			len(st.Slots), len(p.table))
	}
	for i, s := range st.Slots {
		p.table[i] = panglossSlot{delta: s.Delta, conf: s.Conf, valid: s.Valid}
	}
	p.lastVA, p.lastDelta = st.LastVA, st.LastDelta
	p.haveLast, p.haveDelta = st.HaveLast, st.HaveDelta
	p.observed, p.issued = st.Observed, st.Issued
	return nil
}
