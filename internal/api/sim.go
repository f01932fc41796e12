package api

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prefetch/registry"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// Request ceilings. Every request's machine and trace are allocated whole
// before the run starts (trace generation reserves the entire µop budget,
// cache.New every line), so an unbounded value is an out-of-memory crash
// of the daemon, not a slow job. A request over a ceiling gets a 400.
const (
	// MaxOps is 25 × DefaultOps: 30 M µops, the paper's LIT length.
	MaxOps = 25 * workloads.DefaultOps
	// MaxL2KB is a 64 MiB UL2, 64× the Table 1 cache.
	MaxL2KB = 64 * 1024
	// MaxTLBEntries is 64× the Table 1 DTLB.
	MaxTLBEntries = 4096
)

// SimRequest is the POST /v1/sim body. Every field beyond Benchmark is
// optional and defaults to the Table 1 baseline (mirroring cmd/cdpsim's
// flags). Pointer fields distinguish "omitted" from an explicit zero.
// Negative numbers are rejected, never defaulted.
type SimRequest struct {
	Benchmark string `json:"benchmark"`
	// Ops is the µop budget (0 = the default ~1.2 M-µop trace; at most
	// MaxOps).
	Ops int `json:"ops,omitempty"`

	// CDP enables the content-directed prefetcher.
	CDP       bool  `json:"cdp,omitempty"`
	Depth     int   `json:"depth,omitempty"` // 0 = paper default 3
	NextLines *int  `json:"next_lines,omitempty"`
	PrevLines *int  `json:"prev_lines,omitempty"`
	Reinforce *bool `json:"reinforce,omitempty"`

	// MarkovKB enables the Markov comparator with the given STAB budget
	// (-1 = unbounded).
	MarkovKB int `json:"markov_kb,omitempty"`

	// Engine selects an interface-native prefetcher from the registry by
	// spec ("pangloss", "bestoffset:offsets=best", ...). The three engines
	// with dedicated knobs above keep them (stride is the always-on
	// baseline, cdp and markov_kb enable theirs);
	// naming them here is rejected so every configuration has exactly one
	// request spelling — and therefore exactly one content key. Arena
	// cells of the other entrants ride this field.
	Engine string `json:"engine,omitempty"`

	L2KB       int  `json:"l2_kb,omitempty"`       // 0 = 1024; at most MaxL2KB
	L2Ways     int  `json:"l2_ways,omitempty"`     // 0 = 8
	TLBEntries int  `json:"tlb_entries,omitempty"` // 0 = 64; at most MaxTLBEntries
	Inject     bool `json:"inject,omitempty"`

	// CheckpointEveryOps segments the run, pausing at every multiple of
	// this many fetched µops; with a checkpoint store configured each
	// boundary snapshot is persisted for crash recovery. 0 inherits the
	// server default (which may itself be 0 = unsegmented). Segmentation
	// perturbs timing, so it is part of the result's content key.
	CheckpointEveryOps int `json:"checkpoint_every_ops,omitempty"`

	// Trace attaches a cycle-level event tracer to the run; the captured
	// Chrome trace is then served by GET /v1/jobs/{id}/trace. Tracing does
	// not perturb results (traced and untraced runs are byte-identical), so
	// it is deliberately not part of the content key — but that also means
	// a request answered from the cache runs no simulation and captures no
	// trace.
	Trace bool `json:"trace,omitempty"`

	// Priority orders the job against other queued work (higher first).
	Priority int `json:"priority,omitempty"`
	// Wait makes the submission synchronous: the response carries the
	// result instead of a job handle. ?wait=1 is equivalent.
	Wait bool `json:"wait,omitempty"`
}

// buildSim resolves a request into the simulation inputs. The returned
// configuration is fully determined by (benchmark, request, ops) — warm-up
// and MPTU bucketing derive from the µop budget, not the generated trace —
// so it can be validated and content-hashed before any checkpoint exists.
func buildSim(req SimRequest) (workloads.Spec, sim.Config, int, error) {
	spec, err := workloads.ByName(req.Benchmark)
	if err != nil {
		return workloads.Spec{}, sim.Config{}, 0,
			fmt.Errorf("unknown benchmark %q (valid: %s)", req.Benchmark, strings.Join(benchmarkNames(), ", "))
	}
	ops, err := resolveOps(req.Ops)
	if err != nil {
		return workloads.Spec{}, sim.Config{}, 0, err
	}
	for _, f := range []struct {
		name     string
		v, limit int
	}{
		{"depth", req.Depth, math.MaxInt},
		{"l2_kb", req.L2KB, MaxL2KB},
		{"l2_ways", req.L2Ways, math.MaxInt},
		{"tlb_entries", req.TLBEntries, MaxTLBEntries},
	} {
		if f.v < 0 {
			return workloads.Spec{}, sim.Config{}, 0, fmt.Errorf("negative %s %d", f.name, f.v)
		}
		if f.v > f.limit {
			return workloads.Spec{}, sim.Config{}, 0, fmt.Errorf("%s %d exceeds the ceiling of %d", f.name, f.v, f.limit)
		}
	}

	cfg := sim.ForOps(ops)
	if req.L2KB > 0 {
		cfg.L2.SizeBytes = req.L2KB * 1024
	}
	if req.L2Ways > 0 {
		cfg.L2.Ways = req.L2Ways
	}
	if req.TLBEntries > 0 {
		cfg.TLB.Entries = req.TLBEntries
	}
	cfg.InjectBadPrefetches = req.Inject
	if req.CheckpointEveryOps != 0 {
		// Negative values flow through so Validate rejects them with a
		// proper 400 instead of being silently dropped.
		cfg.CheckpointEveryOps = req.CheckpointEveryOps
	}
	if req.CDP {
		cc := core.DefaultConfig
		if req.Depth > 0 {
			cc.DepthThreshold = req.Depth
		}
		if req.NextLines != nil {
			cc.NextLines = *req.NextLines
		}
		if req.PrevLines != nil {
			cc.PrevLines = *req.PrevLines
		}
		if req.Reinforce != nil {
			cc.Reinforce = *req.Reinforce
		}
		cfg = cfg.WithContent(cc)
	}
	if req.MarkovKB != 0 {
		budget := req.MarkovKB * 1024
		if req.MarkovKB < 0 {
			budget = 0
		}
		cfg = cfg.WithMarkov(budget, cfg.L2)
	}
	if req.Engine != "" {
		name, _, err := registry.ParseSpec(req.Engine)
		if err != nil {
			return workloads.Spec{}, sim.Config{}, 0, err
		}
		switch name {
		case "stride", "cdp", "markov":
			return workloads.Spec{}, sim.Config{}, 0, fmt.Errorf(
				"engine %q has a dedicated request knob (stride is always on; use \"cdp\" or \"markov_kb\"); \"engine\" is for interface-native entrants", name)
		}
		cfg = cfg.WithEngine(req.Engine)
	}
	if err := cfg.Validate(); err != nil {
		return workloads.Spec{}, sim.Config{}, 0, fmt.Errorf("invalid configuration: %w", err)
	}
	return spec, cfg, ops, nil
}

// Cell is one simulation resolved for the run path: the defaulted
// POST /v1/sim request, the inputs buildSim resolves it to, and their
// content key. A single sim and every arena cell, on a standalone daemon
// or routed by the cluster coordinator, are resolved into one.
type Cell struct {
	Req  SimRequest
	Spec workloads.Spec
	Cfg  sim.Config
	Ops  int
	Key  simcache.Key
}

// ID is the cell's content-keyed job ID.
func (c Cell) ID() string { return SimJobID(c.Key) }

// ResolveCell applies this server's request defaults (its default
// checkpoint interval) to req and resolves it, exactly as POST /v1/sim
// does.
func (s *Server) ResolveCell(req SimRequest) (Cell, error) {
	if req.CheckpointEveryOps == 0 {
		req.CheckpointEveryOps = s.opts.CheckpointEveryOps
	}
	return newCell(req)
}

// newCell resolves an already-defaulted request.
func newCell(req SimRequest) (Cell, error) {
	spec, cfg, ops, err := buildSim(req)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Req: req, Spec: spec, Cfg: cfg, Ops: ops, Key: simcache.KeyFor(spec, cfg, ops)}, nil
}

// ParseOps reads an ops query parameter under the rule every request
// surface shares: empty or 0 is DefaultOps, and anything negative, above
// MaxOps or not an integer is an error naming the field.
func ParseOps(v string) (int, error) {
	if v == "" {
		return workloads.DefaultOps, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad ops %q: not an integer", v)
	}
	ops, err := resolveOps(n)
	if err != nil {
		return 0, fmt.Errorf("bad ops %q: %v", v, err)
	}
	return ops, nil
}

// parsePriority reads a priority query parameter (empty = 0).
func parsePriority(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	p, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad priority %q", v)
	}
	return p, nil
}

func resolveOps(ops int) (int, error) {
	switch {
	case ops < 0:
		return 0, fmt.Errorf("negative ops %d", ops)
	case ops > MaxOps:
		return 0, fmt.Errorf("ops %d exceeds the ceiling of %d", ops, MaxOps)
	case ops == 0:
		return workloads.DefaultOps, nil
	}
	return ops, nil
}

// ResolveSim resolves a request exactly as the submit handler does once
// the server's defaults are applied (ResolveCell applies them), for
// callers that must agree with this server about content keys — the
// cluster coordinator routes by simcache.KeyFor over these outputs, and
// where its routing disagreed with the workers' own resolution the
// "same key, same owner, computed once" guarantee would silently rot.
func ResolveSim(req SimRequest) (workloads.Spec, sim.Config, int, error) {
	return buildSim(req)
}

// SimJobID is the content-keyed job ID for one simulation. Deriving the ID
// from the key (not a sequence number) is what makes retries, duplicate
// submissions, daemon restarts, and cluster work stealing all converge on
// one job handle.
func SimJobID(key simcache.Key) string { return "sim-" + key.String() }

func benchmarkNames() []string {
	specs := workloads.All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// prefetchStats is the per-source slice of a SimResult.
type prefetchStats struct {
	Issued        uint64  `json:"issued"`
	FullHits      uint64  `json:"full_hits"`
	PartialHits   uint64  `json:"partial_hits"`
	EvictedUnused uint64  `json:"evicted_unused"`
	Accuracy      float64 `json:"accuracy"`
}

// SimResult is the rendered simulation outcome the cache stores and the
// API serves. It is a stable subset of sim.Result; the full counter block
// stays an internal type.
type SimResult struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Ops       int    `json:"ops"`

	RetiredUops    uint64 `json:"retired_uops"`
	Cycles         int64  `json:"cycles"`
	MeasuredUops   uint64 `json:"measured_uops"`
	MeasuredCycles int64  `json:"measured_cycles"`

	IPC  float64 `json:"ipc"`
	MPTU float64 `json:"mptu"`

	L1Hits   uint64 `json:"l1_hits"`
	L1Misses uint64 `json:"l1_misses"`
	L2Hits   uint64 `json:"l2_hits"`
	L2Misses uint64 `json:"l2_misses"`

	TLBHits   uint64 `json:"tlb_hits"`
	TLBMisses uint64 `json:"tlb_misses"`

	Prefetch map[string]prefetchStats `json:"prefetch,omitempty"`
}

// renderResult marshals the cacheable payload for one finished simulation.
func renderResult(benchmark string, ops int, res *sim.Result) ([]byte, error) {
	c := res.Counters
	out := SimResult{
		Benchmark:      benchmark,
		Config:         res.Config.Name,
		Ops:            ops,
		RetiredUops:    res.Core.Retired,
		Cycles:         res.Core.Cycles,
		MeasuredUops:   res.MeasuredUops,
		MeasuredCycles: res.MeasuredCycles,
		IPC:            res.IPC(),
		MPTU:           c.MPTUFor(res.MeasuredUops),
		L1Hits:         c.L1Hits,
		L1Misses:       c.L1Misses,
		L2Hits:         c.L2Hits,
		L2Misses:       c.L2Misses,
		TLBHits:        res.TLBHits,
		TLBMisses:      res.TLBMisses,
	}
	srcs := []cache.Source{cache.SrcStride, cache.SrcContent, cache.SrcMarkov}
	names := []string{"stride", "content", "markov"}
	for i, s := range srcs {
		if c.PrefIssued[s] == 0 {
			continue
		}
		if out.Prefetch == nil {
			out.Prefetch = map[string]prefetchStats{}
		}
		out.Prefetch[names[i]] = prefetchStats{
			Issued:        c.PrefIssued[s],
			FullHits:      c.FullHits[s],
			PartialHits:   c.PartialHits[s],
			EvictedUnused: c.PrefEvictedUnused[s],
			Accuracy:      c.Accuracy(s),
		}
	}
	return json.Marshal(out)
}
