package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// arenaReport is the cacheable payload for one finished arena sweep.
type arenaReport struct {
	Ops         int                `json:"ops"`
	Benchmarks  []string           `json:"benchmarks"`
	Engines     []string           `json:"engines"`
	Cells       []report.ArenaCell `json:"cells"`
	Leaderboard string             `json:"leaderboard"`
}

// engineView is one GET /v1/engines entry.
type engineView struct {
	Name string   `json:"name"`
	Doc  string   `json:"doc"`
	Keys []string `json:"keys,omitempty"`
}

// handleEngines is GET /v1/engines: the prefetcher zoo roster — every
// registered engine with its one-line description and tunable spec keys.
// The arena smoke test asserts the leaderboard covers exactly this list.
func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	names := registry.Names()
	out := make([]engineView, 0, len(names))
	for _, n := range names {
		e, _ := registry.Lookup(n)
		out = append(out, engineView{Name: e.Name, Doc: e.Doc, Keys: e.Keys})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"engines": out})
}

// CellFunc computes one resolved cell and returns its rendered SimResult.
// A standalone server computes its cells itself (computeCell); the cluster
// coordinator routes each to the cell's ring owner.
type CellFunc func(ctx context.Context, c Cell) ([]byte, error)

// ArenaHandler is GET /v1/arena: run every requested engine over every
// requested benchmark and rank the cells against the stride baseline.
// Query parameters: ops (µop budget per cell), benchmarks and engines
// (comma lists; default the suite representatives × the whole registry),
// priority, wait=1.
//
// Every cell, the stride baseline each benchmark is ranked against
// included, is a POST /v1/sim request resolved exactly as the submit path
// resolves it, so it runs under the same content key: an arena never
// re-simulates a configuration the service has already served, and later
// single-sim requests hit the cells the arena filled. cell computes the
// cells, at most fanout at a time; the report is assembled in plan order,
// so its bytes do not depend on which cell finished first.
func (s *Server) ArenaHandler(cell CellFunc, fanout int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		a, err := s.planArena(q.Get("ops"), q.Get("benchmarks"), q.Get("engines"))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		priority, err := parsePriority(q.Get("priority"))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key := simcache.KeyForArena(a.benchmarks, a.engines, a.ops)
		s.serveSweep(w, r, "arena-", key, priority, func(ctx context.Context, j *jobq.Job) ([]byte, error) {
			return a.run(ctx, j, cell, fanout)
		})
	}
}

// arena is one validated sweep: per benchmark, the stride baseline cell
// followed by one cell per engine.
type arena struct {
	ops        int
	benchmarks []string
	engines    []string
	cells      []Cell
}

// planArena parses an arena query and resolves every cell up front, so a
// bad budget, benchmark or engine spec is a 400 rather than a failed job.
func (s *Server) planArena(opsParam, benchParam, engineParam string) (arena, error) {
	ops, err := ParseOps(opsParam)
	if err != nil {
		return arena{}, err
	}
	a := arena{ops: ops, engines: registry.Names()}
	if benchParam != "" {
		a.benchmarks = strings.Split(benchParam, ",")
	} else {
		for _, spec := range workloads.SuiteRepresentatives() {
			a.benchmarks = append(a.benchmarks, spec.Name)
		}
	}
	if engineParam != "" {
		a.engines = strings.Split(engineParam, ",")
	}
	for _, bench := range a.benchmarks {
		for _, eng := range a.row() {
			req, err := arenaCellRequest(bench, eng, ops)
			if err != nil {
				return arena{}, err
			}
			c, err := s.ResolveCell(req)
			if err != nil {
				return arena{}, err
			}
			a.cells = append(a.cells, c)
		}
	}
	return a, nil
}

// row is the engine spec of each cell in one benchmark's row of the plan.
func (a arena) row() []string { return append([]string{"stride"}, a.engines...) }

// run computes every cell through the shared sweep executor, reporting
// progress on j, and renders the ranked report.
func (a arena) run(ctx context.Context, j *jobq.Job, cell CellFunc, fanout int) ([]byte, error) {
	row := a.row()
	results := make([]SimResult, len(a.cells))
	_, err := experiments.Sweep(ctx, len(a.cells), fanout,
		func(done, total int) { j.SetProgress("simulating", done, total) },
		func(ctx context.Context, i int) error {
			data, err := cell(ctx, a.cells[i])
			if err == nil {
				err = json.Unmarshal(data, &results[i])
			}
			if err != nil {
				return fmt.Errorf("arena: cell %s/%s: %w", a.cells[i].Req.Benchmark, row[i%len(row)], err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	cells := make([]report.ArenaCell, 0, len(a.benchmarks)*len(a.engines))
	for bi, bench := range a.benchmarks {
		base := &results[bi*len(row)]
		for ei, eng := range a.engines {
			cells = append(cells, makeArenaCell(eng, bench, base, &results[bi*len(row)+1+ei]))
		}
	}
	return json.Marshal(arenaReport{
		Ops:         a.ops,
		Benchmarks:  a.benchmarks,
		Engines:     a.engines,
		Cells:       cells,
		Leaderboard: report.ArenaLeaderboard(cells),
	})
}

// arenaCellRequest maps one arena cell onto its POST /v1/sim request, the
// one spelling of an engine spec as a machine configuration. The three
// engines with dedicated request knobs (stride is the always-on baseline,
// cdp and markov_kb enable theirs) run their canonical configurations; the
// other entrants attach by the request's engine field and accept the
// registry's spec grammar.
func arenaCellRequest(bench, engineSpec string, ops int) (SimRequest, error) {
	name, params, err := registry.ParseSpec(engineSpec)
	if err != nil {
		return SimRequest{}, fmt.Errorf("arena: %w", err)
	}
	req := SimRequest{Benchmark: bench, Ops: ops}
	switch name {
	case "stride", "cdp", "markov":
		if len(params) > 0 {
			return SimRequest{}, fmt.Errorf(
				"arena: engine %q runs its canonical configuration; parameters are not supported here (use POST /v1/sim)", name)
		}
	}
	switch name {
	case "stride":
		// The baseline machine: stride is always on, nothing else is.
	case "cdp":
		req.CDP = true
	case "markov":
		req.MarkovKB = 512
	default:
		if err := registry.Validate(engineSpec); err != nil {
			return SimRequest{}, fmt.Errorf("arena: %w", err)
		}
		req.Engine = engineSpec
	}
	return req, nil
}

// makeArenaCell assembles one leaderboard cell from a benchmark's stride
// baseline result and the engine under test's.
func makeArenaCell(engine, bench string, base, res *SimResult) report.ArenaCell {
	cell := report.ArenaCell{
		Engine:    engine,
		Benchmark: bench,
		Band:      report.MPTUBand(base.MPTU),
		IPC:       res.IPC,
		MPTU:      res.MPTU,
		Speedup:   float64(base.MeasuredCycles) / float64(res.MeasuredCycles),
	}
	// Attribute the cell to the source the engine under test issues at:
	// interface-native entrants account under markov, cdp under content,
	// and the baseline's own stride stream is the fallback.
	for _, src := range []string{"content", "markov", "stride"} {
		if p, ok := res.Prefetch[src]; ok {
			cell.Issued = p.Issued
			cell.Accuracy = p.Accuracy
			break
		}
	}
	return cell
}

// computeCell is the standalone server's CellFunc: the cell takes the
// POST /v1/sim run path under its content key, so an arena cell and a
// single sim of the same configuration share one cache entry and one
// simulation.
func (s *Server) computeCell(ctx context.Context, c Cell) ([]byte, error) {
	data, _, err := s.cache.GetOrCompute(c.Key, func() ([]byte, error) {
		return s.simulate(ctx, c, s.resumePoint(c), false, noProgress)
	})
	if err == nil && s.store != nil {
		s.store.remove(c.ID())
	}
	return data, err
}
