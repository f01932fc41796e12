package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

// updateEngineGoldens regenerates the per-engine and per-core-geometry
// golden counter files:
//
//	go test ./internal/sim -run 'Test(Engine|CoreGeometry)GoldenCounters' -update-engines
//
// The stride/cdp/markov files were captured BEFORE the Prefetcher-interface
// refactor; they are the proof that routing those engines through the
// interface changed nothing. Regenerate only for a deliberate model change,
// never to absorb drift from a refactor.
var updateEngineGoldens = flag.Bool("update-engines", false,
	"rewrite testdata/golden/{engines,core}/<name>.txt files")

// goldenOps pins the trace budget the engine goldens were generated with.
const goldenOps = 120_000

// goldenBase mirrors the service's config derivation (api.buildSim): the
// warm-up and MPTU bucketing come from the µop budget.
func goldenBase() Config {
	cfg := Default()
	cfg.WarmupOps = uint64(goldenOps / 8)
	cfg.MPTUBucketOps = uint64(goldenOps / 48)
	return cfg
}

// engineGoldenConfigs is the fixed pre-refactor engine matrix. The two
// interface-native entrants (pangloss, bestoffset) are appended by
// TestEngineGoldenCounters when the Engine field exists; their goldens are
// regression anchors captured at introduction rather than equivalence
// witnesses.
func engineGoldenConfigs() map[string]Config {
	base := goldenBase()
	return map[string]Config{
		"stride":     base,
		"cdp":        base.WithContent(core.DefaultConfig),
		"markov":     base.WithMarkov(512*1024, base.L2),
		"pangloss":   base.WithEngine("pangloss"),
		"bestoffset": base.WithEngine("bestoffset"),
	}
}

// renderEngineGolden is the byte-compared serialization: the measured
// region, then every counter the report layer knows how to print.
func renderEngineGolden(benchmark string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark %s\nconfig %s\n", benchmark, res.Config.Name)
	fmt.Fprintf(&b, "retired %d measured_uops %d\n", res.Core.Retired, res.MeasuredUops)
	fmt.Fprintf(&b, "cycles %d measured_cycles %d\n", res.Core.Cycles, res.MeasuredCycles)
	fmt.Fprintf(&b, "tlb %d/%d\n\n", res.TLBHits, res.TLBMisses)
	b.WriteString(report.CountersReport(res.Counters))
	return b.String()
}

func engineGoldenPath(name string) string {
	return filepath.Join("testdata", "golden", "engines", name+".txt")
}

// checkGolden compares got against the golden file at path, or rewrites
// the file under -update-engines.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateEngineGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-engines): %v", err)
	}
	if got != string(want) {
		t.Errorf("counters drifted from %s:\n%s", path, diffHead(string(want), got))
	}
}

// TestEngineGoldenCounters runs one small benchmark per engine
// configuration and compares the rendered counter block byte-for-byte
// against the checked-in golden. stride/cdp/markov goldens predate the
// Prefetcher-interface refactor, so a pass here means the interface rewire
// is behaviourally invisible.
func TestEngineGoldenCounters(t *testing.T) {
	spec, err := workloads.ByName("tpcc-1")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, goldenOps)
	for name, cfg := range engineGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, engineGoldenPath(name), renderEngineGolden(spec.Name, Run(ck, cfg)))
		})
	}
}

// coreGeometryConfigs are core geometries the default machine does not
// exercise: a ROB whose size is not a power of two, a wider issue stage,
// a multi-cycle integer latency and a single-cycle FP latency. Each runs
// with the content prefetcher on, so walks, squashes and promotions all
// feed the core's completion path.
func coreGeometryConfigs() map[string]Config {
	base := goldenBase().WithContent(core.DefaultConfig)
	geoms := map[string]Config{}
	for name, edit := range map[string]func(c *Config){
		"rob96":  func(c *Config) { c.Core.ROBSize = 96 },
		"issue4": func(c *Config) { c.Core.IssueWidth = 4 },
		"int2":   func(c *Config) { c.Core.IntLatency = 2 },
		"fp1":    func(c *Config) { c.Core.FPLatency = 1 },
	} {
		cfg := base
		edit(&cfg)
		cfg.Name += "-" + name
		geoms[name] = cfg
	}
	return geoms
}

// TestCoreGeometryGoldenCounters pins the counters of each core geometry
// under both entry points, Run and the checkpoint-segmented
// RunCheckpointed, so a change to the core's cycle loop must leave every
// simulated cycle where it was.
func TestCoreGeometryGoldenCounters(t *testing.T) {
	// speech mixes tree-search pointer chasing with FP kernels, so every
	// functional-unit class and latency is on the critical path somewhere.
	spec, err := workloads.ByName("speech")
	if err != nil {
		t.Fatal(err)
	}
	ck := workloads.Checkpoint(spec, goldenOps)
	for name, cfg := range coreGeometryConfigs() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", "core", name)
			checkGolden(t, path+"-run.txt", renderEngineGolden(spec.Name, Run(ck, cfg)))

			seg := cfg
			seg.CheckpointEveryOps = goldenOps / 4
			res, err := RunCheckpointed(ck, seg, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, path+"-segmented.txt", renderEngineGolden(spec.Name, res))
		})
	}
}

// diffHead points at the first line of divergence so a failure names the
// counter, not just "bytes differ".
func diffHead(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
