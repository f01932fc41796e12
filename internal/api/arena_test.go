package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
)

func getArena(t *testing.T, s *Server, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/arena"+query, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestEnginesEndpoint pins /v1/engines to the registry roster — the arena
// smoke test in CI compares leaderboard coverage against this list.
func TestEnginesEndpoint(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	req := httptest.NewRequest("GET", "/v1/engines", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("engines: %d %s", w.Code, w.Body)
	}
	var out struct {
		Engines []struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	names := registry.Names()
	if len(out.Engines) != len(names) {
		t.Fatalf("endpoint lists %d engines, registry has %d", len(out.Engines), len(names))
	}
	for i, e := range out.Engines {
		if e.Name != names[i] {
			t.Errorf("engine %d = %q, registry says %q", i, e.Name, names[i])
		}
		if e.Doc == "" {
			t.Errorf("engine %q has no doc line", e.Name)
		}
	}
}

// TestArenaSweep runs a tiny full-registry arena and checks the matrix is
// complete: one cell per engine × benchmark, every engine on the
// leaderboard, stride cells at exactly 1.0 speedup, and a cache hit on
// resubmission.
func TestArenaSweep(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})

	w := getArena(t, s, "?ops=10000&benchmarks=b2c,tpcc-1&wait=1")
	if w.Code != http.StatusOK {
		t.Fatalf("arena: %d %s", w.Code, w.Body)
	}
	var env struct {
		Cached bool `json:"cached"`
		Result struct {
			Ops         int                `json:"ops"`
			Benchmarks  []string           `json:"benchmarks"`
			Engines     []string           `json:"engines"`
			Cells       []report.ArenaCell `json:"cells"`
			Leaderboard string             `json:"leaderboard"`
		} `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Cached {
		t.Fatal("first arena run reported cached")
	}
	engines := registry.Names()
	wantCells := len(engines) * 2
	if len(env.Result.Cells) != wantCells {
		t.Fatalf("arena produced %d cells, want %d (%d engines × 2 benchmarks)",
			len(env.Result.Cells), wantCells, len(engines))
	}
	seen := map[string]int{}
	for _, c := range env.Result.Cells {
		seen[c.Engine]++
		if c.Band == "" {
			t.Errorf("cell %s/%s has no MPTU band", c.Engine, c.Benchmark)
		}
		if c.Engine == "stride" && c.Speedup != 1.0 {
			t.Errorf("stride cell on %s has speedup %v against itself", c.Benchmark, c.Speedup)
		}
		if c.Speedup <= 0 {
			t.Errorf("cell %s/%s has non-positive speedup %v", c.Engine, c.Benchmark, c.Speedup)
		}
	}
	for _, e := range engines {
		if seen[e] != 2 {
			t.Errorf("engine %q appears in %d cells, want 2", e, seen[e])
		}
		if !strings.Contains(env.Result.Leaderboard, e) {
			t.Errorf("leaderboard omits engine %q:\n%s", e, env.Result.Leaderboard)
		}
	}

	// The whole sweep is content-addressed: resubmitting is a cache hit.
	w = getArena(t, s, "?ops=10000&benchmarks=b2c,tpcc-1&wait=1")
	if w.Code != http.StatusOK {
		t.Fatalf("arena rerun: %d %s", w.Code, w.Body)
	}
	var env2 struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Fatal("identical arena request missed the cache")
	}
}

// TestArenaBadRequests exercises the 400 paths: unknown engines carry the
// registry's valid-name listing, and the engines with dedicated request
// knobs (cdp, markov) reject parameters.
func TestArenaBadRequests(t *testing.T) {
	s, _ := newTestServer(t, jobq.Config{Workers: 1, Capacity: 4})
	cases := []struct {
		query   string
		wantErr string
	}{
		{"?engines=quake3", "valid: bestoffset, cdp, markov, pangloss, stride"},
		{"?engines=cdp:depth=9", "parameters are not supported here"},
		{"?engines=markov:entries=64", "parameters are not supported here"},
		{"?engines=pangloss:rows=100", "power of two"},
		{"?benchmarks=nope", "unknown benchmark"},
		{"?ops=-5", "bad ops"},
	}
	for _, tc := range cases {
		w := getArena(t, s, tc.query)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", tc.query, w.Code)
			continue
		}
		if !strings.Contains(w.Body.String(), tc.wantErr) {
			t.Errorf("%s: body %s missing %q", tc.query, w.Body, tc.wantErr)
		}
	}
}

// TestArenaFillsSimCache: an arena cell is resolved and run exactly like
// POST /v1/sim, the server's default checkpoint interval included, so a
// single sim of an arena's cell is a cache hit at every interval.
func TestArenaFillsSimCache(t *testing.T) {
	for _, every := range []int{0, 5000} {
		t.Run(fmt.Sprintf("checkpoint_every=%d", every), func(t *testing.T) {
			q := jobq.New(jobq.Config{Workers: 1, Capacity: 4})
			t.Cleanup(func() { _ = q.Shutdown(context.Background()) })
			s, err := NewWithOptions(q, simcache.New(1<<24), Options{CheckpointEveryOps: every})
			if err != nil {
				t.Fatal(err)
			}
			if w := getArena(t, s, "?ops=20000&benchmarks=b2c&engines=cdp&wait=1"); w.Code != http.StatusOK {
				t.Fatalf("arena: %d %s", w.Code, w.Body)
			}
			runs := sim.Runs()
			for _, body := range []string{
				`{"benchmark":"b2c","ops":20000,"wait":true}`,
				`{"benchmark":"b2c","ops":20000,"cdp":true,"wait":true}`,
			} {
				w := postSim(t, s, body)
				if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"cached":true`) {
					t.Errorf("%s after the arena: %d %s, want a cache hit", body, w.Code, w.Body)
				}
			}
			if d := sim.Runs() - runs; d != 0 {
				t.Errorf("single sims of arena cells ran %d simulations, want 0", d)
			}
		})
	}
}
