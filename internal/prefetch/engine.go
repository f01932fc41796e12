// The Prefetcher interface is the "prefetcher zoo" contract: every engine
// — the stride baseline, the Joseph & Grunwald Markov STAB, the
// content-directed prefetcher, and the newer entrants in this package —
// observes miss (or fill) events and appends the virtual addresses it
// wants prefetched. A Config builds one engine; sim.Config.Prefetchers is
// an ordered list of them, so attaching an engine to the simulated
// machine is appending its Config. internal/prefetch/registry names the
// engines, and internal/prefetch/conformance holds the behavioural
// contract every registered engine must pass.
package prefetch

import (
	"bytes"
	"encoding/gob"
)

// Stream identifies which event stream an engine trains on. The memory
// system delivers events from exactly the declared stream, preserving each
// engine's original observation point (stride: L1 misses; Markov and the
// delta/offset entrants: L2 demand misses; content: data-carrying fills).
type Stream uint8

const (
	// StreamL1 is the per-reference L1 miss stream; events carry the load
	// PC and the full effective virtual address.
	StreamL1 Stream = iota
	// StreamL2 is the L2 demand-miss stream at cache-line granularity;
	// events carry the missing line's virtual base address.
	StreamL2
	// StreamFill is the data-carrying fill stream; events additionally
	// carry the filled line's bytes for content inspection.
	StreamFill
)

func (s Stream) String() string {
	switch s {
	case StreamL1:
		return "l1-miss"
	case StreamL2:
		return "l2-miss"
	case StreamFill:
		return "fill"
	default:
		return "unknown"
	}
}

// TranslateVia identifies how an engine's predicted virtual addresses
// become physical before entering the memory system.
type TranslateVia uint8

const (
	// TranslateTLB routes predictions through the DTLB; a prediction
	// whose page is not resident is dropped (no speculative walk). This
	// is the stride engine's behaviour in the paper's baseline machine.
	TranslateTLB TranslateVia = iota
	// TranslateDirect consults the software page map directly, modelling
	// a physically-indexed table (the Markov STAB) or an engine operating
	// post-translation; unmapped predictions are dropped.
	TranslateDirect
)

// Event is one observation delivered to an engine. Which fields are
// populated depends on the engine's declared Stream:
//
//   - StreamL1: PC and VA (full effective address).
//   - StreamL2: VA (line base) and PriorIssued.
//   - StreamFill: VA (filled line base), TrigVA, Depth, and Data.
type Event struct {
	// PC is the program counter of the triggering reference.
	PC uint32
	// VA is the miss address: the full effective address on the L1
	// stream, the line base on the L2 and fill streams.
	VA uint32
	// TrigVA is the effective address of the request that caused a fill
	// (fill stream only).
	TrigVA uint32
	// Depth is the request depth the fill arrived with (fill stream
	// only; 0 for demand fills).
	Depth int
	// PriorIssued reports whether a higher-precedence engine already
	// issued a prefetch for this reference — the paper's stride-blocks-
	// Markov rule, generalised to the engine chain order.
	PriorIssued bool
	// Data is the filled line's bytes (fill stream only). Engines must
	// not retain it past the Observe call.
	Data []byte
}

// Counters is the uniform lifetime-counter block every engine exports.
// Both fields are monotone; the conformance suite enforces it.
type Counters struct {
	// Observed is the number of events the engine has been shown (one
	// per Observe call).
	Observed uint64
	// Issued is the number of prefetch addresses the engine has
	// predicted while enabled.
	Issued uint64
}

// Prefetcher is the engine-neutral contract. Implementations must be
// deterministic: the same construction parameters and event sequence must
// produce the identical issue sequence (the simulator's byte-identical-
// counters guarantee rests on it).
type Prefetcher interface {
	// Name is the engine's registry name ("stride", "markov", ...).
	Name() string
	// Stream declares which event stream the engine observes.
	Stream() Stream
	// Translate declares how predictions are translated before issue.
	Translate() TranslateVia
	// Observe trains on one event and appends the virtual addresses to
	// prefetch to dst, returning the extended slice. A disabled engine
	// still trains but appends nothing. Implementations must not retain
	// dst or ev.Data.
	Observe(ev Event, dst []uint32) []uint32
	// SetEnabled toggles issue (training continues while disabled). The
	// toggle is a harness affordance — it is not part of the machine
	// state and is not checkpointed.
	SetEnabled(enabled bool)
	// Reset reverts the engine to its just-constructed state: tables
	// cleared, counters zeroed. A post-Reset replay must match a fresh
	// engine's exactly.
	Reset()
	// Counters reports the engine's lifetime counters.
	Counters() Counters
	// MarshalState serialises the engine's mutable state for
	// checkpointing; UnmarshalState restores it into an engine built
	// with the same configuration. Restored engines must replay
	// identically to the original.
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
	// String renders the engine and its geometry for config names.
	String() string
}

// Config is one engine's construction parameters: the unit of the
// simulator's ordered engine list. Each engine's config type implements
// it, so an engine is built in exactly one place whichever surface (Go
// literal, registry spec, HTTP request) selected it.
type Config interface {
	// Validate reports whether New would succeed.
	Validate() error
	// New builds a fresh engine; it panics on what Validate rejects.
	New() Prefetcher
	// Stream is the stream the engine New builds declares, so a machine
	// can be checked without building its engines.
	Stream() Stream
}

// EncodeState gob-encodes an engine's checkpoint state; it is the body of
// every MarshalState in the zoo.
func EncodeState(st any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeState inverts EncodeState into the value st points to.
func DecodeState(data []byte, st any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(st)
}
