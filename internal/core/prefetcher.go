package core

import (
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/simtrace"
)

// Config assembles the full content-prefetcher policy: the matching
// heuristic plus the chaining, width and reinforcement knobs explored in
// Section 4.2 of the paper.
type Config struct {
	Match MatchConfig
	// DepthThreshold bounds prefetch chaining: requests whose depth
	// would exceed it are dropped, and lines arriving at the threshold
	// depth are not scanned (Figure 3). The paper's best setting is 3.
	DepthThreshold int
	// NextLines is how many sequentially following cache lines are
	// prefetched along with each candidate ("wider" instead of
	// "deeper", Section 3.4.3). The paper's best setting is 3.
	NextLines int
	// PrevLines prefetches lines preceding the candidate; the paper
	// finds this unhelpful on average (Figure 9) but evaluates it.
	PrevLines int
	// Reinforce enables feedback-directed path reinforcement: demand
	// (or shallower) hits on prefetched lines promote the stored depth
	// and rescan the line to re-arm the chain (Figure 4(b)).
	Reinforce bool
	// RescanSlack is the minimum difference between stored and incoming
	// depth required to trigger a rescan. 1 reproduces Figure 4(b); 2
	// halves the rescan traffic as in Figure 4(c).
	RescanSlack int
	// LineSize is the cache line size scanned (64 in Table 1).
	LineSize int
	// Adaptive, when non-nil, enables runtime tuning of the compare
	// width from accuracy feedback (the paper's stated future work).
	Adaptive *AdaptiveConfig
}

// DefaultConfig is the paper's chosen operating point: virtual address
// matching at 8.4.1.2, depth threshold 3, three next-line prefetches, path
// reinforcement on.
var DefaultConfig = Config{
	Match:          DefaultMatch,
	DepthThreshold: 3,
	NextLines:      3,
	PrevLines:      0,
	Reinforce:      true,
	RescanSlack:    1,
	LineSize:       64,
}

// Validate checks the policy's self-consistency.
func (c Config) Validate() error {
	if err := c.Match.Validate(); err != nil {
		return err
	}
	if c.DepthThreshold < 1 {
		return fmt.Errorf("core: depth threshold %d < 1", c.DepthThreshold)
	}
	if c.NextLines < 0 || c.PrevLines < 0 {
		return fmt.Errorf("core: negative line width")
	}
	if c.Reinforce && c.RescanSlack < 1 {
		return fmt.Errorf("core: rescan slack %d < 1", c.RescanSlack)
	}
	if c.LineSize < 4 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("core: bad line size %d", c.LineSize)
	}
	if c.Adaptive != nil {
		if err := c.Adaptive.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// New builds the content prefetcher.
func (c Config) New() prefetch.Prefetcher { return New(c) }

// Stream: the CDP is the one engine that trains on data-carrying fills —
// the paper's whole point is that the prediction state *is* the data.
func (c Config) Stream() prefetch.Stream { return prefetch.StreamFill }

// Candidate is one prefetch the policy wants issued.
type Candidate struct {
	// VA is the virtual line base address to prefetch.
	VA uint32
	// Pointer is the raw candidate word that produced this request (for
	// next-/prev-line candidates, the word that anchored the group).
	Pointer uint32
	// Depth is the request depth the prefetch will carry.
	Depth int
	// Widened marks next-/prev-line companions (not the pointer's own
	// line); useful for ablation accounting.
	Widened bool
}

// Prefetcher holds the policy state. It is deliberately tiny — the paper's
// titular point is that the mechanism is *stateless*: no history tables, no
// training. The only persistent state in the whole scheme is the 2-bit
// stored depth per L2 line, which lives in the cache, not here.
type Prefetcher struct {
	conf     Config // as constructed, for Reset
	cfg      Config // live policy: the adaptive controller moves Match
	adaptive *Adaptive
	enabled  bool

	linesScanned  uint64
	wordsMatched  uint64
	rescans       uint64
	chainsStopped uint64 // scans suppressed by the depth threshold
	adaptations   uint64

	// observed and issued are the engine-interface counters; they count
	// Observe calls only (the memory system drives OnFill directly).
	observed uint64
	issued   uint64

	// words and out are scratch buffers reused across fills; the slice
	// OnFill returns aliases out and is valid only until the next call.
	words []uint32
	out   []Candidate

	// tr, when non-nil, receives candidate-match events. Events are
	// stamped by the tracer's clock (the memory system announces the
	// cycle before running the scanner).
	tr *simtrace.Tracer
}

// AttachTracer wires an event tracer into the scanner (nil detaches).
func (p *Prefetcher) AttachTracer(tr *simtrace.Tracer) { p.tr = tr }

// New builds a content prefetcher; it panics on invalid configuration
// (configurations are static experiment inputs).
func New(cfg Config) *Prefetcher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Prefetcher{conf: cfg, cfg: cfg, enabled: true}
	if cfg.Adaptive != nil {
		p.adaptive = NewAdaptive(*cfg.Adaptive, cfg.Match)
		p.cfg.Match = p.adaptive.Match()
	}
	return p
}

var _ prefetch.Prefetcher = (*Prefetcher)(nil)

// Name is the engine's registry name.
func (p *Prefetcher) Name() string { return "cdp" }

// Stream: the CDP scans data-carrying fills.
func (p *Prefetcher) Stream() prefetch.Stream { return prefetch.StreamFill }

// Translate: content candidates are virtual addresses and go through the
// DTLB like demand references (Section 3.2).
func (p *Prefetcher) Translate() prefetch.TranslateVia { return prefetch.TranslateTLB }

// SetEnabled toggles issue from Observe; scanning continues while
// disabled.
func (p *Prefetcher) SetEnabled(enabled bool) { p.enabled = enabled }

// Counters reports the engine-interface counters.
func (p *Prefetcher) Counters() prefetch.Counters {
	return prefetch.Counters{Observed: p.observed, Issued: p.issued}
}

// Reset rebuilds the scanner from its constructed policy. The CDP holds
// no tables, so this zeroes its statistics and undoes any adaptation; an
// attached tracer stays attached.
func (p *Prefetcher) Reset() {
	tr := p.tr
	*p = *New(p.conf)
	p.tr = tr
}

// Observe scans one filled line (ev.Data) and appends the candidate lines.
// Events without data train nothing: stateless means there is no table to
// update. Inside the simulator the memory system calls OnFill instead,
// because it needs each candidate's depth.
func (p *Prefetcher) Observe(ev prefetch.Event, dst []uint32) []uint32 {
	p.observed++
	if len(ev.Data) == 0 {
		return dst
	}
	cands := p.OnFill(ev.TrigVA, ev.Depth, ev.VA, ev.Data)
	if !p.enabled {
		return dst
	}
	for i := range cands {
		dst = append(dst, cands[i].VA)
	}
	p.issued += uint64(len(cands))
	return dst
}

// Config returns the active policy.
func (p *Prefetcher) Config() Config { return p.cfg }

// lineBase truncates an address to its cache-line base.
func (p *Prefetcher) lineBase(addr uint32) uint32 {
	return addr &^ uint32(p.cfg.LineSize-1)
}

// ShouldScan reports whether a line that arrived with the given request
// depth is scanned. Lines at the threshold depth terminate the chain
// (Figure 3, step D).
func (p *Prefetcher) ShouldScan(depth int) bool {
	if depth >= p.cfg.DepthThreshold {
		p.chainsStopped++
		return false
	}
	return true
}

// OnFill scans a newly filled line and returns the prefetch candidates.
// trigVA is the effective virtual address of the request that caused the
// fill; depth is that request's depth (0 for a demand fetch). The returned
// candidates carry depth+1 and include the configured next/previous lines
// for each matched pointer. Candidate lines equal to the scanned line
// itself are suppressed (a self-pointer prefetches nothing new). The
// returned slice aliases an internal scratch buffer and is valid only until
// the next OnFill call.
func (p *Prefetcher) OnFill(trigVA uint32, depth int, lineVA uint32, line []byte) []Candidate {
	if !p.ShouldScan(depth) {
		return nil
	}
	p.linesScanned++
	p.words = p.cfg.Match.AppendScan(p.words[:0], trigVA, line)
	words := p.words
	p.wordsMatched += uint64(len(words))
	if len(words) == 0 {
		return nil
	}
	scanned := p.lineBase(lineVA)
	nd := depth + 1
	out := p.out[:0]
	ls := uint32(p.cfg.LineSize)
	for _, w := range words {
		base := p.lineBase(w)
		out = addCandidate(out, scanned, base, w, nd, false)
		for k := 1; k <= p.cfg.NextLines; k++ {
			out = addCandidate(out, scanned, base+uint32(k)*ls, w, nd, true)
		}
		for k := 1; k <= p.cfg.PrevLines; k++ {
			out = addCandidate(out, scanned, base-uint32(k)*ls, w, nd, true)
		}
	}
	p.out = out
	if p.tr.Enabled() {
		for i := range out {
			widened := uint64(0)
			if out[i].Widened {
				widened = 1
			}
			p.tr.Emit(simtrace.Event{
				Kind: simtrace.KindCandidate, Comp: simtrace.CompCDP,
				Addr: out[i].VA, Addr2: out[i].Pointer,
				Depth: int16(out[i].Depth), Arg: widened,
			})
		}
	}
	return out
}

// addCandidate appends one candidate line unless it targets the scanned
// line itself or duplicates an earlier candidate. Per-line candidate counts
// are tiny, so a linear dedup scan beats building a set for every fill.
func addCandidate(out []Candidate, scanned, base, ptr uint32, depth int, widened bool) []Candidate {
	if base == scanned {
		return out
	}
	for i := range out {
		if out[i].VA == base {
			return out
		}
	}
	return append(out, Candidate{VA: base, Pointer: ptr, Depth: depth, Widened: widened})
}

// OnCacheHit applies the reinforcement rules when a request of depth
// incoming hits a line whose stored depth is stored. It returns the new
// stored depth (promotion keeps the invariant that depth counts links since
// a non-speculative request) and whether the line should be rescanned to
// extend the chain.
func (p *Prefetcher) OnCacheHit(stored, incoming int) (newDepth int, rescan bool) {
	if incoming >= stored {
		return stored, false
	}
	if !p.cfg.Reinforce {
		// Without reinforcement the stored depth is still promoted (it
		// is just bookkeeping), but no rescan is triggered.
		return incoming, false
	}
	rescan = stored-incoming >= p.cfg.RescanSlack
	if rescan {
		p.rescans++
	}
	return incoming, rescan
}

// ResolvePrefetch feeds the adaptive controller with one resolved content
// prefetch: useful (touched by a demand access) or useless (evicted
// untouched). Without an adaptive configuration it is a no-op.
func (p *Prefetcher) ResolvePrefetch(useful bool) {
	if p.adaptive == nil {
		return
	}
	if m, changed := p.adaptive.Observe(useful); changed {
		p.cfg.Match = m
		p.adaptations++
	}
}

// Stats reports scanner activity counters.
func (p *Prefetcher) Stats() (linesScanned, wordsMatched, rescans, chainsStopped uint64) {
	return p.linesScanned, p.wordsMatched, p.rescans, p.chainsStopped
}

// Adaptations reports how many times the adaptive controller changed the
// heuristic.
func (p *Prefetcher) Adaptations() uint64 { return p.adaptations }

func (p *Prefetcher) String() string {
	r := "nr"
	if p.cfg.Reinforce {
		r = "reinf"
	}
	return fmt.Sprintf("cdp{%s d%d p%d.n%d %s}", p.cfg.Match, p.cfg.DepthThreshold,
		p.cfg.PrevLines, p.cfg.NextLines, r)
}

// state is the prefetcher's checkpoint payload: the live heuristic (which
// the adaptive controller may have moved off its configured start), the
// activity counters, and the controller's window. The scratch buffers are
// per-fill and never cross a checkpoint boundary.
type state struct {
	Match         MatchConfig
	LinesScanned  uint64
	WordsMatched  uint64
	Rescans       uint64
	ChainsStopped uint64
	Adaptations   uint64
	Observed      uint64
	Issued        uint64
	Adaptive      *adaptiveState
}

type adaptiveState struct {
	Match                    MatchConfig
	Useful, Total            uint64
	Steps, Tightens, Loosens uint64
}

// MarshalState serialises the prefetcher for checkpointing.
func (p *Prefetcher) MarshalState() ([]byte, error) {
	st := state{
		Match:        p.cfg.Match,
		LinesScanned: p.linesScanned, WordsMatched: p.wordsMatched,
		Rescans: p.rescans, ChainsStopped: p.chainsStopped,
		Adaptations: p.adaptations, Observed: p.observed, Issued: p.issued,
	}
	if a := p.adaptive; a != nil {
		st.Adaptive = &adaptiveState{
			Match: a.match, Useful: a.useful, Total: a.total,
			Steps: a.steps, Tightens: a.tightens, Loosens: a.loosens,
		}
	}
	return prefetch.EncodeState(st)
}

// UnmarshalState restores a MarshalState payload. The payload must agree
// with the prefetcher's static configuration on whether an adaptive
// controller is present.
func (p *Prefetcher) UnmarshalState(data []byte) error {
	var st state
	if err := prefetch.DecodeState(data, &st); err != nil {
		return err
	}
	if (st.Adaptive != nil) != (p.adaptive != nil) {
		return fmt.Errorf("core: adaptive state presence mismatch (snapshot %v, config %v)",
			st.Adaptive != nil, p.adaptive != nil)
	}
	if err := st.Match.Validate(); err != nil {
		return fmt.Errorf("core: prefetcher state carries invalid heuristic: %v", err)
	}
	if as := st.Adaptive; as != nil {
		if err := as.Match.Validate(); err != nil {
			return fmt.Errorf("core: adaptive state carries invalid heuristic: %v", err)
		}
		a := p.adaptive
		a.match = as.Match
		a.useful, a.total = as.Useful, as.Total
		a.steps, a.tightens, a.loosens = as.Steps, as.Tightens, as.Loosens
	}
	p.cfg.Match = st.Match
	p.linesScanned, p.wordsMatched = st.LinesScanned, st.WordsMatched
	p.rescans, p.chainsStopped = st.Rescans, st.ChainsStopped
	p.adaptations = st.Adaptations
	p.observed, p.issued = st.Observed, st.Issued
	return nil
}
