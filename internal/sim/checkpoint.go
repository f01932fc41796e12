// Checkpoint/resume for the simulator. A simulation with
// Config.CheckpointEveryOps > 0 runs in segments: fetch pauses at absolute
// multiples of the interval, the machine drains completely (empty ROB,
// drained store buffer, quiesced memory system), and the whole deterministic
// state is captured as a Snapshot. Because the in-flight machinery — event
// heap, arbiters, bus transactions, page-walk continuations — is empty by
// construction at a boundary, the snapshot is a plain value with no
// closures, and resuming from it replays the remaining segments
// byte-identically to an uninterrupted checkpointed run.
package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Quiesced reports whether the memory system is fully drained: no pending
// events, no in-flight transactions, empty arbiters. cpu.RunSegmented polls
// it while draining a segment.
func (ms *MemSystem) Quiesced() bool {
	return ms.sched.next() < 0 && ms.inflight.len() == 0 &&
		ms.l2q.Len() == 0 && ms.busq.Len() == 0 && ms.nextPumpAt == 0
}

// MemState is the checkpointable state of a quiesced memory system. The
// stride-recent set is carried as its insertion-ordered FIFO alone; the
// membership map is rebuilt from it on restore (package sim must not
// iterate maps — simlint's determinism analyzer — and the FIFO already
// holds every member in a canonical order).
type MemState struct {
	Now        int64
	ReqID      uint64
	ChainSeq   uint64
	L2PortFree int64
	InjLCG     uint32
	LastInject int64
	StrideFIFO []uint32
	Bus        bus.State
	L1, L2     cache.State
	TLB        tlb.State
	// Engines is the engine chain's state, one entry per cfg.Prefetchers
	// member in order. Each engine owns its encoding, so a new engine
	// checkpoints without touching this struct.
	Engines []EngineState
}

// EngineState is one chain member's checkpoint: the engine's String() at
// construction, which pins its kind and geometry, and its MarshalState
// payload.
type EngineState struct {
	Engine string
	State  []byte
}

// state snapshots a quiesced memory system; it fails if anything is in
// flight.
func (ms *MemSystem) state() (MemState, error) {
	if !ms.Quiesced() {
		return MemState{}, fmt.Errorf("sim: memory system not quiesced (next event %d, inflight %d, l2q %d, busq %d)",
			ms.sched.next(), ms.inflight.len(), ms.l2q.Len(), ms.busq.Len())
	}
	st := MemState{
		Now: ms.now, ReqID: ms.reqID, ChainSeq: ms.chainSeq, L2PortFree: ms.l2PortFree,
		InjLCG: ms.injLCG, LastInject: ms.lastInject,
		StrideFIFO: append([]uint32(nil), ms.strideFIFO...),
		Bus:        ms.fsb.State(),
		L1:         ms.l1.State(),
		L2:         ms.l2.State(),
		TLB:        ms.dtlb.State(),
	}
	for _, p := range ms.ports {
		data, err := p.eng.MarshalState()
		if err != nil {
			return MemState{}, fmt.Errorf("sim: checkpointing engine %s: %w", p.name, err)
		}
		st.Engines = append(st.Engines, EngineState{Engine: p.name, State: data})
	}
	return st, nil
}

// restore loads a quiesce-point snapshot into a freshly built memory
// system. The snapshot's engine chain must match the configuration's in
// length, order and geometry.
func (ms *MemSystem) restore(st MemState) error {
	snap := make([]string, len(st.Engines))
	for i, e := range st.Engines {
		snap[i] = e.Engine
	}
	cfg := make([]string, len(ms.ports))
	for i, p := range ms.ports {
		cfg[i] = p.name
	}
	if !slices.Equal(snap, cfg) {
		return fmt.Errorf("sim: snapshot engine chain [%s] does not match the configured [%s]",
			strings.Join(snap, ", "), strings.Join(cfg, ", "))
	}
	if err := ms.l1.Restore(st.L1); err != nil {
		return err
	}
	if err := ms.l2.Restore(st.L2); err != nil {
		return err
	}
	if err := ms.dtlb.Restore(st.TLB); err != nil {
		return err
	}
	for i, p := range ms.ports {
		if err := p.eng.UnmarshalState(st.Engines[i].State); err != nil {
			return fmt.Errorf("sim: restoring engine %s: %w", p.name, err)
		}
	}
	ms.fsb.Restore(st.Bus)
	ms.now, ms.reqID, ms.l2PortFree = st.Now, st.ReqID, st.L2PortFree
	ms.chainSeq = st.ChainSeq
	ms.injLCG, ms.lastInject = st.InjLCG, st.LastInject
	ms.sched.now = st.Now
	ms.strideFIFO = append(ms.strideFIFO[:0], st.StrideFIFO...)
	ms.strideRecent = make(map[uint32]bool, len(st.StrideFIFO))
	for _, pa := range st.StrideFIFO {
		ms.strideRecent[pa] = true
	}
	return nil
}

// Snapshot is the complete deterministic state of a checkpointed simulation
// at an op-count boundary. It is a plain gob-encodable value: everything
// with in-flight structure is empty at a boundary and therefore absent.
type Snapshot struct {
	// ConfigName guards against resuming a snapshot under a different
	// machine; Resume additionally re-validates the live Config.
	ConfigName string
	// OpsFetched is the absolute µop boundary the snapshot was taken at.
	OpsFetched int
	// Warmed records whether the warm-up reset has already happened, so a
	// resumed run re-arms the retire observer only when it must.
	Warmed    bool
	WarmCycle int64

	Core     cpu.CoreState
	Mem      MemState
	Counters stats.Counters
	MPTU     stats.SeriesState
}

// snapshotMagic versions the serialized stream; bump it when Snapshot's
// shape changes incompatibly.
const snapshotMagic = "cdpsnap2"

// WriteSnapshot serializes s to w behind a version header.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot reads a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("sim: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("sim: not a %s snapshot stream (header %q)", snapshotMagic, magic)
	}
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	return &s, nil
}

// EncodeSnapshot renders s to bytes (WriteSnapshot into a buffer).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeSnapshot parses bytes produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	return ReadSnapshot(bytes.NewReader(data))
}

// machine bundles the components of one simulation so the plain,
// segmented and resumed paths share construction, warm-up arming, and
// result assembly.
type machine struct {
	cfg  Config
	st   *stats.Counters
	mptu *stats.MPTUSeries
	ms   *MemSystem
	c    *cpu.Core

	warmCycle int64
	warmed    bool
}

// newMachine builds the machine for ck under cfg; a non-nil tracer records
// its event stream.
func newMachine(ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer) *machine {
	m := &machine{cfg: cfg, st: &stats.Counters{}}
	m.mptu = stats.NewMPTUSeries(cfg.MPTUBucketOps)
	m.ms = NewMemSystem(&m.cfg, ck.Space, m.st, m.mptu)
	m.c = cpu.New(cfg.Core, m.st)
	if tr != nil {
		m.ms.AttachTracer(tr)
		m.c.AttachTracer(tr)
	}
	return m
}

// armWarmup attaches the warm-up retire observer unless the boundary has
// already passed (a resume from a post-warm-up snapshot).
func (m *machine) armWarmup() {
	if m.cfg.WarmupOps == 0 || m.warmed {
		return
	}
	m.c.OnRetire = func(retired uint64, cycle int64) {
		if retired >= m.cfg.WarmupOps {
			m.warmCycle = cycle
			m.warmed = true
			m.st.Reset(cycle)
			m.c.OnRetire = nil
		}
	}
}

func (m *machine) snapshot(opsFetched int) (*Snapshot, error) {
	cs, err := m.c.State()
	if err != nil {
		return nil, err
	}
	mst, err := m.ms.state()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		ConfigName: m.cfg.Name,
		OpsFetched: opsFetched,
		Warmed:     m.warmed,
		WarmCycle:  m.warmCycle,
		Core:       cs,
		Mem:        mst,
		Counters:   *m.st,
		MPTU:       m.mptu.State(),
	}, nil
}

func (m *machine) restoreSnapshot(snap *Snapshot) error {
	if snap.ConfigName != m.cfg.Name {
		return fmt.Errorf("sim: snapshot is for config %q, machine is %q", snap.ConfigName, m.cfg.Name)
	}
	if m.cfg.CheckpointEveryOps <= 0 {
		return fmt.Errorf("sim: resuming requires CheckpointEveryOps > 0")
	}
	if snap.OpsFetched <= 0 || snap.OpsFetched%m.cfg.CheckpointEveryOps != 0 {
		return fmt.Errorf("sim: snapshot boundary %d is not a positive multiple of the %d-µop interval",
			snap.OpsFetched, m.cfg.CheckpointEveryOps)
	}
	if err := m.c.Restore(snap.Core); err != nil {
		return err
	}
	if err := m.ms.restore(snap.Mem); err != nil {
		return err
	}
	*m.st = snap.Counters
	if err := m.mptu.Restore(snap.MPTU); err != nil {
		return err
	}
	m.warmed, m.warmCycle = snap.Warmed, snap.WarmCycle
	return nil
}

// finish assembles the result of a completed run and counts it in Runs.
func (m *machine) finish(coreRes cpu.Result) *Result {
	m.st.Cycles = coreRes.Cycles
	m.st.WarmCycles = m.warmCycle
	hits, misses := m.ms.TLBStats()
	m.st.TLBHits = hits
	m.st.TLBMisses = misses
	res := &Result{
		Config:         m.cfg,
		Core:           coreRes,
		Counters:       m.st,
		MPTU:           m.mptu,
		MeasuredCycles: coreRes.Cycles - m.warmCycle,
		MeasuredUops:   coreRes.Retired,
		TLBHits:        hits,
		TLBMisses:      misses,
	}
	if m.cfg.WarmupOps > 0 && coreRes.Retired > m.cfg.WarmupOps {
		res.MeasuredUops = coreRes.Retired - m.cfg.WarmupOps
	}
	runs.Add(1)
	return res
}

// run executes the remaining segments, handing each boundary snapshot to
// sink (nil = segmentation only). The sim.checkpoint.abort fault point
// fires here, before the snapshot is captured, modeling a budget-exhausted
// or killed run whose latest persisted snapshot is the previous boundary's.
func (m *machine) run(ck *trace.Checkpoint, sink func(*Snapshot) error) (*Result, error) {
	plan := cpu.SegmentPlan{
		Every:    m.cfg.CheckpointEveryOps,
		Quiesced: m.ms.Quiesced,
		OnBoundary: func(opsFetched int) error {
			if err := faultinject.Error("sim.checkpoint.abort"); err != nil {
				return fmt.Errorf("sim: aborted at %d-µop boundary: %w", opsFetched, err)
			}
			if sink == nil {
				return nil
			}
			snap, err := m.snapshot(opsFetched)
			if err != nil {
				return err
			}
			return sink(snap)
		},
	}
	coreRes, err := m.c.RunSegmented(ck.Trace, m.ms, m.cfg.MaxOps, plan)
	if err != nil {
		return nil, err
	}
	return m.finish(coreRes), nil
}

// RunCheckpointed simulates ck under cfg with checkpoint segmentation
// (cfg.CheckpointEveryOps must be > 0), calling sink with a Snapshot at
// every mid-run boundary. Results differ from Run's by the drain stalls the
// boundaries introduce — which is why the interval lives in Config and
// flows into the content hash — but are identical across uninterrupted and
// resumed executions of the same configuration.
func RunCheckpointed(ck *trace.Checkpoint, cfg Config, sink func(*Snapshot) error) (*Result, error) {
	return RunCheckpointedTraced(ck, cfg, nil, sink)
}

// RunCheckpointedTraced is RunCheckpointed with an event tracer attached
// (nil is exactly RunCheckpointed). As with RunTraced, the result is
// byte-identical with and without the tracer.
func RunCheckpointedTraced(ck *trace.Checkpoint, cfg Config, tr *simtrace.Tracer, sink func(*Snapshot) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEveryOps <= 0 {
		return nil, fmt.Errorf("sim: RunCheckpointed needs CheckpointEveryOps > 0")
	}
	m := newMachine(ck, cfg, tr)
	m.armWarmup()
	return m.run(ck, sink)
}

// Resume continues a checkpointed simulation from snap, replaying the
// remaining segments. The returned result is byte-identical to what the
// uninterrupted RunCheckpointed would have produced.
func Resume(ck *trace.Checkpoint, cfg Config, snap *Snapshot, sink func(*Snapshot) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newMachine(ck, cfg, nil)
	if err := m.restoreSnapshot(snap); err != nil {
		return nil, err
	}
	m.armWarmup()
	return m.run(ck, sink)
}
