// Package markov implements the 1-history Markov prefetcher of Joseph &
// Grunwald (ISCA 1997) as configured in Section 5 of the paper: a State
// Transition Table (STAB) with a fan-out of four successors per miss
// address, LRU-managed both across entries and within each entry's
// successor list. It is the stateful, training-bound comparator against
// which the stateless content prefetcher is evaluated (Table 3, Figure 11).
//
// The STAB observes the L2 demand-miss stream at cache-line granularity.
// On a miss to line M it (a) records M as a successor of the previous miss
// and (b) predicts the recorded successors of M as prefetches. Per the
// paper, the stride prefetcher is given precedence: if the stride engine
// issued for the triggering reference, the Markov prefetcher is blocked
// from issuing, reducing redundant prefetches.
package markov

import (
	"container/list"
	"fmt"

	"repro/internal/prefetch"
)

// Fanout is the number of successor slots per STAB entry (the paper's
// configuration).
const Fanout = 4

// EntryBytes is the modelled hardware cost of one STAB entry, used to
// convert the paper's byte budgets into entry counts: a 4-byte tag, four
// 4-byte successors, and ~4 bytes of valid/LRU state.
const EntryBytes = 24

// EntriesForBudget converts a STAB byte budget (e.g. 512 KiB) to entries.
func EntriesForBudget(bytes int) int { return bytes / EntryBytes }

// Config sizes the STAB.
type Config struct {
	// MaxEntries bounds the table; 0 means unbounded (the paper's
	// markov_big upper-limit configuration).
	MaxEntries int
}

// Validate checks the table bound; New panics on what this rejects.
func (c Config) Validate() error {
	if c.MaxEntries < 0 {
		return fmt.Errorf("markov: negative entry bound %d", c.MaxEntries)
	}
	return nil
}

// New builds the STAB prefetcher.
func (c Config) New() prefetch.Prefetcher { return New(c) }

// Stream: the STAB observes the L2 demand-miss stream.
func (c Config) Stream() prefetch.Stream { return prefetch.StreamL2 }

type entry struct {
	line uint32
	succ []uint32 // MRU-first, at most Fanout
	elem *list.Element
}

// Markov is the STAB prefetcher.
type Markov struct {
	cfg      Config
	table    map[uint32]*entry
	lru      *list.List // front = MRU entries
	lastMiss uint32
	haveLast bool
	enabled  bool

	observed   uint64
	predicted  uint64
	transition uint64
}

// New builds a Markov prefetcher.
func New(cfg Config) *Markov {
	if cfg.MaxEntries < 0 {
		panic(fmt.Sprintf("markov: negative entry bound %d", cfg.MaxEntries))
	}
	return &Markov{cfg: cfg, table: make(map[uint32]*entry), lru: list.New(), enabled: true}
}

var _ prefetch.Prefetcher = (*Markov)(nil)

// Name is the engine's registry name.
func (m *Markov) Name() string { return "markov" }

// Stream: the STAB observes the L2 demand-miss stream (Section 5).
func (m *Markov) Stream() prefetch.Stream { return prefetch.StreamL2 }

// Translate: the STAB is modelled post-translation; predictions consult
// the page map directly.
func (m *Markov) Translate() prefetch.TranslateVia { return prefetch.TranslateDirect }

// SetEnabled toggles issue; transition recording continues while disabled.
func (m *Markov) SetEnabled(enabled bool) { m.enabled = enabled }

// Counters reports the engine's lifetime counters.
func (m *Markov) Counters() prefetch.Counters {
	return prefetch.Counters{Observed: m.observed, Issued: m.predicted}
}

// Reset reverts to the just-constructed state.
func (m *Markov) Reset() {
	m.table = make(map[uint32]*entry)
	m.lru = list.New()
	m.lastMiss, m.haveLast = 0, false
	m.observed, m.predicted, m.transition = 0, 0, 0
}

// Config returns the table bound.
func (m *Markov) Config() Config { return m.cfg }

// Entries reports the current table population.
func (m *Markov) Entries() int { return len(m.table) }

func (m *Markov) touch(e *entry) {
	m.lru.MoveToFront(e.elem)
}

func (m *Markov) get(line uint32, create bool) *entry {
	if e, ok := m.table[line]; ok {
		m.touch(e)
		return e
	}
	if !create {
		return nil
	}
	if m.cfg.MaxEntries > 0 && len(m.table) >= m.cfg.MaxEntries {
		victim := m.lru.Back()
		ve := victim.Value.(*entry)
		m.lru.Remove(victim)
		delete(m.table, ve.line)
	}
	e := &entry{line: line}
	e.elem = m.lru.PushFront(e)
	m.table[line] = e
	return e
}

// ObserveMiss trains on one L2 demand miss (line address) and returns the
// predicted successor lines to prefetch. strideIssued blocks prediction
// when the stride prefetcher already issued for this reference, mirroring
// the sequential stride-then-Markov access of Section 5.
func (m *Markov) ObserveMiss(line uint32, strideIssued bool) []uint32 {
	return m.Observe(prefetch.Event{VA: line, PriorIssued: strideIssued}, nil)
}

// Observe trains on one L2 miss event and appends the predicted successor
// lines to dst. ev.PriorIssued carries the paper's stride-takes-precedence
// rule: a reference the stride engine already covered records its
// transition but predicts nothing.
func (m *Markov) Observe(ev prefetch.Event, dst []uint32) []uint32 {
	line := ev.VA
	m.observed++
	// Record the transition lastMiss -> line.
	if m.haveLast && m.lastMiss != line {
		e := m.get(m.lastMiss, true)
		inserted := false
		for i, s := range e.succ {
			if s == line { // move to MRU position within the entry
				copy(e.succ[1:i+1], e.succ[:i])
				e.succ[0] = line
				inserted = true
				break
			}
		}
		if !inserted {
			if len(e.succ) < Fanout {
				e.succ = append(e.succ, 0)
			}
			copy(e.succ[1:], e.succ[:len(e.succ)-1])
			e.succ[0] = line
		}
		m.transition++
	}
	m.lastMiss = line
	m.haveLast = true

	if ev.PriorIssued || !m.enabled {
		return dst
	}
	e := m.get(line, false)
	if e == nil || len(e.succ) == 0 {
		return dst
	}
	dst = append(dst, e.succ...)
	m.predicted += uint64(len(e.succ))
	return dst
}

// Stats returns misses observed, transitions recorded and prefetch lines
// predicted.
func (m *Markov) Stats() (observed, transitions, predicted uint64) {
	return m.observed, m.transition, m.predicted
}

func (m *Markov) String() string {
	bound := "unbounded"
	if m.cfg.MaxEntries > 0 {
		bound = fmt.Sprintf("%d entries", m.cfg.MaxEntries)
	}
	return fmt.Sprintf("markov{STAB %s, fanout %d}", bound, Fanout)
}

// state is the STAB's checkpoint payload. Entries are MRU-first so the
// cross-entry LRU order restores exactly; each entry's successors keep
// their MRU-first order.
type state struct {
	Entries     []entryState
	LastMiss    uint32
	HaveLast    bool
	Observed    uint64
	Transitions uint64
	Predicted   uint64
}

type entryState struct {
	Line uint32
	Succ []uint32
}

// MarshalState serialises the STAB for checkpointing.
func (m *Markov) MarshalState() ([]byte, error) {
	st := state{
		LastMiss: m.lastMiss, HaveLast: m.haveLast,
		Observed: m.observed, Transitions: m.transition, Predicted: m.predicted,
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		st.Entries = append(st.Entries, entryState{Line: e.line, Succ: e.succ})
	}
	return prefetch.EncodeState(st)
}

// UnmarshalState restores a MarshalState payload into a same-bound engine.
func (m *Markov) UnmarshalState(data []byte) error {
	var st state
	if err := prefetch.DecodeState(data, &st); err != nil {
		return err
	}
	if m.cfg.MaxEntries > 0 && len(st.Entries) > m.cfg.MaxEntries {
		return fmt.Errorf("markov: state has %d entries, table bound is %d", len(st.Entries), m.cfg.MaxEntries)
	}
	m.table = make(map[uint32]*entry, len(st.Entries))
	m.lru = list.New()
	for _, es := range st.Entries {
		if len(es.Succ) > Fanout {
			return fmt.Errorf("markov: entry %#x has %d successors, fanout is %d", es.Line, len(es.Succ), Fanout)
		}
		if _, dup := m.table[es.Line]; dup {
			return fmt.Errorf("markov: duplicate entry %#x in state", es.Line)
		}
		e := &entry{line: es.Line, succ: es.Succ}
		e.elem = m.lru.PushBack(e) // Entries is MRU-first; appending keeps the order
		m.table[es.Line] = e
	}
	m.lastMiss, m.haveLast = st.LastMiss, st.HaveLast
	m.observed, m.transition, m.predicted = st.Observed, st.Transitions, st.Predicted
	return nil
}
