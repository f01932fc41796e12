// Package benchio defines the schema-versioned benchmark record cmd/bench
// writes (BENCH_<n>.json at the repository root) and the helpers for
// numbering, writing and reading those files. perfbench also takes its
// peak-RSS reading from here.
//
// Schema v3 (the current version) holds:
//
//   - the environment the report was measured in;
//   - the hot path: BenchmarkSimulatorUopsPerSecond's ns/op, B/op and
//     allocs/op;
//   - per BENCHMARK.json workload, the median of each end-to-end metric
//     over a fixed number of perfbench runs, whether every run's outputs
//     were correct, the ops attempted and failed, and each metric's
//     direction and bound copied from BENCHMARK.json, so a report carries
//     its own gates.
//
// Read also accepts v1 and v2. Those measured experiment matrices rather
// than perfbench workloads and kept the hot path under "after"; Read keeps
// only their hot-path block.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SchemaVersion identifies the report layout. Bump it when a field changes
// meaning; additive fields may keep the version.
const SchemaVersion = 3

// minReadableSchema is the oldest layout Read still understands.
const minReadableSchema = 1

// Metrics is one benchmark measurement in Go testing units.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// HotPath is the simulator hot-path benchmark's measurement.
type HotPath struct {
	Benchmark string `json:"benchmark"`
	Metrics
	// After is where v1 and v2 reports kept the measurement; Read moves
	// it into Metrics.
	After *Metrics `json:"after,omitempty"`
}

// Workload is the median of a BENCHMARK.json workload's perfbench runs.
type Workload struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// Correct is true when every run checked its outputs and found them
	// right; Attempted and Failed sum the runs' op counts.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []Metric `json:"metrics"`
}

// Metric is one end-to-end metric of a workload, with the gate
// BENCHMARK.json declares for it.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"` // median over the workload's runs
	Unit  string  `json:"unit"`
	// Better is "higher" or "lower"; Bound is the fraction the value may
	// worsen by before the verdict fails.
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Report is one full cmd/bench run.
type Report struct {
	Schema      int        `json:"schema"`
	CreatedUnix int64      `json:"created_unix"`
	GoVersion   string     `json:"go_version"`
	GOOS        string     `json:"goos"`
	GOARCH      string     `json:"goarch"`
	NumCPU      int        `json:"num_cpu"`
	HotPath     *HotPath   `json:"hot_path,omitempty"`
	Workloads   []Workload `json:"workloads,omitempty"`
}

// EnvComparable reports whether wall-clock-derived metrics of two reports
// can be compared at all: same toolchain, same platform, same core count.
// Allocation counts and deterministic results stay comparable across
// environments.
func EnvComparable(a, b *Report) bool {
	return a.GoVersion == b.GoVersion && a.GOOS == b.GOOS &&
		a.GOARCH == b.GOARCH && a.NumCPU == b.NumCPU
}

// NextPath returns the first unused BENCH_<n>.json path in dir (n >= 1) and
// the chosen n. Numbering never reuses a gap below the maximum, so reports
// stay in chronological order.
func NextPath(dir string) (string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	maxN := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil && n > maxN {
			maxN = n
		}
	}
	n := maxN + 1
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n)), n, nil
}

// List returns the BENCH_<n>.json paths in dir in numeric order.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil {
			found = append(found, numbered{n, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = f.path
	}
	return out, nil
}

// Write marshals the report and writes it atomically (temp file + rename),
// so a crashed run never leaves a truncated report behind.
func Write(path string, r *Report) error {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Read parses one report, rejecting schema versions this code does not
// understand. A v1 or v2 report comes back with its hot-path measurement
// in HotPath.Metrics and no workloads; callers that care which layout they
// got check Report.Schema.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	if r.Schema < minReadableSchema || r.Schema > SchemaVersion {
		return nil, fmt.Errorf("benchio: %s: unsupported schema %d (want %d..%d)",
			path, r.Schema, minReadableSchema, SchemaVersion)
	}
	if h := r.HotPath; h != nil && h.After != nil {
		h.Metrics, h.After = *h.After, nil
	}
	return &r, nil
}
