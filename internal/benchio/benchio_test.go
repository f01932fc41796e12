package benchio

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		CreatedUnix: 1_700_000_000,
		GoVersion:   "go-test",
		GOOS:        "linux",
		GOARCH:      "amd64",
		NumCPU:      8,
		HotPath: &HotPath{
			Benchmark: "BenchmarkSimulatorUopsPerSecond",
			Metrics:   Metrics{NsPerOp: 2.4e7, BytesPerOp: 774_000, AllocsPerOp: 987},
		},
		Workloads: []Workload{{
			Name: "pointer-sweep", Runs: 3, Correct: true, Attempted: 340,
			Metrics: []Metric{
				{Name: "uops_per_s", Value: 6.3e6, Unit: "uop/s", Better: "higher", Bound: 0.25},
				{Name: "cdp_speedup", Value: 1.2927, Unit: "x", Better: "higher", Bound: 0.01},
			},
		}},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	want := sampleReport()
	if err := Write(path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", got.Schema, SchemaVersion)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"after"`) {
		t.Fatalf("a current report spells its hot path the v1/v2 way:\n%s", data)
	}
}

// Read must keep accepting the v1 layout: the verdict compares fresh
// reports against the checked-in trajectory, which starts at schema 1.
// Only the hot-path block survives, moved out of "after".
func TestReadAcceptsSchemaV1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	v1 := `{
  "schema": 1,
  "go_version": "go1.24.0", "goos": "linux", "goarch": "amd64", "num_cpu": 1,
  "ops": 60000, "peak_rss_kb": 269808,
  "hot_path": {"benchmark": "B", "before_ref": "abc",
    "before": {"ns_per_op": 4e7, "bytes_per_op": 2, "allocs_per_op": 421396},
    "after": {"ns_per_op": 2e7, "bytes_per_op": 1, "allocs_per_op": 16497}},
  "experiments": [
    {"id": "table1", "title": "T1", "wall_ms": 0.06, "sims": 0, "sims_per_sec": 0, "alloc_mb": 0.01, "allocs": 136},
    {"id": "fig9", "title": "F9", "wall_ms": 2477, "sims": 258, "sims_per_sec": 104.1, "alloc_mb": 276, "allocs": 2116718}
  ]
}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Read(path)
	if err != nil {
		t.Fatalf("Read(v1): %v", err)
	}
	if r.Schema != 1 {
		t.Fatalf("schema = %d", r.Schema)
	}
	want := Metrics{NsPerOp: 2e7, BytesPerOp: 1, AllocsPerOp: 16497}
	if r.HotPath == nil || r.HotPath.Metrics != want || r.HotPath.After != nil {
		t.Fatalf("v1 hot path = %+v, want %+v moved out of after", r.HotPath, want)
	}
	if len(r.Workloads) != 0 {
		t.Fatalf("v1 report decoded workloads: %+v", r.Workloads)
	}
}

func TestReadRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("Read accepted schema 999")
	}
}

func TestNextPathNumbering(t *testing.T) {
	dir := t.TempDir()
	path, n, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || filepath.Base(path) != "BENCH_1.json" {
		t.Fatalf("empty dir: got n=%d path=%s", n, path)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path, n, err = NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Numbering continues past the maximum; the gap at 2 is not reused.
	if n != 4 || filepath.Base(path) != "BENCH_4.json" {
		t.Fatalf("got n=%d path=%s, want BENCH_4.json", n, path)
	}
	paths, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || filepath.Base(paths[0]) != "BENCH_1.json" || filepath.Base(paths[1]) != "BENCH_3.json" {
		t.Fatalf("List = %v", paths)
	}
}

func TestPeakRSSReportsOnLinux(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this platform")
	}
	kb, ok := PeakRSS()
	if !ok || kb == 0 {
		t.Fatalf("PeakRSS = (%d, %v) with /proc available", kb, ok)
	}
	if PeakRSSKB() == 0 {
		t.Fatal("PeakRSSKB returned 0 with /proc available")
	}
}
