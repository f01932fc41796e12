package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchio"
)

// goTestOutput is `go test -run '^$' -bench '^BenchmarkSimulatorUopsPerSecond$'
// -benchmem .` as captured on a 2-vCPU linux/amd64 host, with the custom
// uops/op column between ns/op and B/op.
const goTestOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkSimulatorUopsPerSecond-2   	      36	  32968039 ns/op	    151159 uops/op	  774216 B/op	     987 allocs/op
PASS
ok  	repro	1.340s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(goTestOutput, hotPathBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	want := benchio.Metrics{NsPerOp: 32968039, BytesPerOp: 774216, AllocsPerOp: 987}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}

	noMem := strings.Replace(goTestOutput, "	  774216 B/op	     987 allocs/op", "", 1)
	if _, err := parseBenchOutput(noMem, hotPathBenchmark); err == nil {
		t.Error("a result line without -benchmem columns parsed")
	}
	if _, err := parseBenchOutput("PASS\nok  	repro	0.010s\n", hotPathBenchmark); err == nil {
		t.Error("output with no result line parsed")
	}
	if _, err := parseBenchOutput(goTestOutput, "BenchmarkSimulator"); err == nil {
		t.Error("a benchmark name matched a longer name's result line")
	}
}

// perfbenchOutput is the tail of `bash perfbench/run.sh --workload
// core-fresh --seed 1 --seconds 12 --trace 0` as captured on the same host.
const perfbenchOutput = `  cdp_speedup                        1.015218 x       n=4      geomean stride/CDP cycles
  peak_rss_mb                       95.121094 MB      n=1      VmHWM at exit
env {"nproc":2,"gomaxprocs":2,"go_version":"go1.24.0","calibration_ms":67.194675,"steal_pct":7.621326042378674}
{"correct":true,"attempted":70,"failed":0,"metrics":{"cdp_speedup":{"value":1.0152177572570074,"unit":"x"},"op_p50_ms":{"value":155.94,"unit":"ms"},"op_tail_ms":{"value":177.248,"unit":"ms"},"peak_rss_mb":{"value":95.12109375,"unit":"MB"},"req_per_s":{"value":6.130727785701986,"unit":"1/s"},"setup_s":{"value":0.003708,"unit":"s"},"uops_per_s":{"value":7386907.690682712,"unit":"uop/s"}}}
`

func TestParsePerfbench(t *testing.T) {
	r, err := parsePerfbench(perfbenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 70 || r.Failed != 0 || len(r.Metrics) != 7 {
		t.Fatalf("parsed %+v", r)
	}
	if v := r.Metrics["cdp_speedup"].Value; v != 1.0152177572570074 {
		t.Fatalf("cdp_speedup = %v", v)
	}
	for _, bad := range []string{"", "perfbench core-fresh seed=1\n", `{"correct":true,"attempted":0,"failed":0,"metrics":{}}`} {
		if _, err := parsePerfbench(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

// TestSummarize: medians per metric in BENCHMARK.json's order with its
// direction and bound, op counts summed, and one incorrect run makes the
// workload incorrect.
func TestSummarize(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs []perfbenchResult
	for i, line := range []string{
		`{"correct":true,"attempted":30,"failed":0,"metrics":{"uops_per_s":{"value":3},"cdp_speedup":{"value":1.5}}}`,
		`{"correct":false,"attempted":31,"failed":1,"metrics":{"uops_per_s":{"value":1},"cdp_speedup":{"value":1.5}}}`,
		`{"correct":true,"attempted":29,"failed":0,"metrics":{"uops_per_s":{"value":2},"cdp_speedup":{"value":1.5},"unlisted":{"value":9}}}`,
	} {
		r, err := parsePerfbench(line)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		runs = append(runs, r)
	}
	w := summarize(spec, "pointer-sweep", runs)
	want := benchio.Workload{
		Name: "pointer-sweep", Runs: 3, Correct: false, Attempted: 90, Failed: 1,
		Metrics: []benchio.Metric{
			{Name: "uops_per_s", Value: 2, Unit: "uop/s", Better: "higher", Bound: 0.25},
			{Name: "cdp_speedup", Value: 1.5, Unit: "x", Better: "higher", Bound: 0.01},
		},
	}
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("summarize = %+v\nwant %+v", w, want)
	}
}
