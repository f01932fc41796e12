// Command bench records the repository's benchmark into a BENCH_<n>.json
// trajectory file, and gates one such file against another.
//
//	go run ./cmd/bench                                  # measure; write the next BENCH_<n>.json here
//	go run ./cmd/bench -out bench-out/                  # ... into another directory, or an explicit .json path
//	go run ./cmd/bench -verdict BENCH_4.json            # gate against its predecessor (exit 1 on breach)
//	go run ./cmd/bench -verdict new.json -against BENCH_4.json
//
// Measuring runs from the repository root and drives two existing tools.
// It runs BENCHMARK.json's command (perfbench) for every declared workload
// at benchSeeds seeds with tracing off, keeping each run's final JSON line,
// and it runs bench_test.go's BenchmarkSimulatorUopsPerSecond under
// `go test -bench` for the hot path's ns/op, B/op and allocs/op. The report
// holds, per workload, the median of each end-to-end metric together with
// the direction and bound BENCHMARK.json gives it, so the verdict gates a
// report by the bounds it was measured under. DESIGN.md §15 describes the
// gates.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchio"
)

// benchSeeds is how many perfbench runs, one seed each, every workload's
// medians are taken over.
const benchSeeds = 3

// hotPathBenchmark is the bench_test.go benchmark whose allocation count
// the verdict ratchets.
const hotPathBenchmark = "BenchmarkSimulatorUopsPerSecond"

func main() {
	out := flag.String("out", ".", "output: a directory (next BENCH_<n>.json is chosen) or an explicit .json path")
	verdict := flag.String("verdict", "", "gate this BENCH file against -against instead of measuring")
	against := flag.String("against", "", "baseline BENCH file for -verdict (default: its predecessor in the same directory)")
	flag.Parse()

	if *verdict != "" {
		os.Exit(runVerdict(os.Stdout, *verdict, *against))
	}
	if err := measure(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchmarkSpec is the part of BENCHMARK.json that bench reads.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w (run from the repository root)", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(spec.Command) == 0 || spec.RunSeconds < 1 || len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("bench: %s needs a command, run_seconds >= 1 and a workload", path)
	}
	for _, e := range spec.EndToEnd {
		if e.Better != "higher" && e.Better != "lower" {
			return nil, fmt.Errorf("bench: %s: metric %s: better is %q, want higher or lower", path, e.Name, e.Better)
		}
	}
	return &spec, nil
}

func measure(out string) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	report := &benchio.Report{
		Schema:      benchio.SchemaVersion,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
	}

	// Seeds outermost: a host slowdown that lasts a while then lands on
	// one run of each workload instead of on every run of one.
	runs := map[string][]perfbenchResult{}
	for seed := 1; seed <= benchSeeds; seed++ {
		for _, w := range spec.Workloads {
			r, err := runPerfbench(spec, w.Name, seed)
			if err != nil {
				return err
			}
			runs[w.Name] = append(runs[w.Name], r)
		}
	}
	for _, w := range spec.Workloads {
		report.Workloads = append(report.Workloads, summarize(spec, w.Name, runs[w.Name]))
	}

	if report.HotPath, err = runHotPath(); err != nil {
		return err
	}

	path := out
	if !strings.HasSuffix(out, ".json") {
		if path, _, err = benchio.NextPath(out); err != nil {
			return err
		}
	}
	if err := benchio.Write(path, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// perfbenchResult is the final line perfbench prints.
type perfbenchResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runPerfbench runs one workload at one seed, echoing its output.
func runPerfbench(spec *benchmarkSpec, workload string, seed int) (perfbenchResult, error) {
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)],
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	var buf bytes.Buffer
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return perfbenchResult{}, fmt.Errorf("bench: %s seed %d: %w", workload, seed, err)
	}
	r, err := parsePerfbench(buf.String())
	if err != nil {
		return perfbenchResult{}, fmt.Errorf("bench: %s seed %d: %w", workload, seed, err)
	}
	return r, nil
}

// parsePerfbench decodes the last non-empty line of perfbench's output.
func parsePerfbench(out string) (perfbenchResult, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var r perfbenchResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("final output line %q: %w", last, err)
	}
	if r.Attempted < 1 || len(r.Metrics) == 0 {
		return r, fmt.Errorf("final output line %q attempted no op or carries no metrics", last)
	}
	return r, nil
}

// summarize folds one workload's runs into its report entry: the median
// of every BENCHMARK.json end-to-end metric the runs printed, correct only
// if every run was, and the op counts summed.
func summarize(spec *benchmarkSpec, name string, runs []perfbenchResult) benchio.Workload {
	w := benchio.Workload{Name: name, Runs: len(runs), Correct: true}
	for _, r := range runs {
		w.Correct = w.Correct && r.Correct
		w.Attempted += r.Attempted
		w.Failed += r.Failed
	}
	for _, e := range spec.EndToEnd {
		var vals []float64
		for _, r := range runs {
			if m, ok := r.Metrics[e.Name]; ok {
				vals = append(vals, m.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		w.Metrics = append(w.Metrics, benchio.Metric{
			Name: e.Name, Value: median(vals), Unit: e.Unit, Better: e.Better, Bound: e.Bound,
		})
	}
	return w
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count. xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runHotPath runs the hot-path benchmark in its own test process,
// echoing its output.
func runHotPath() (*benchio.HotPath, error) {
	var buf bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+hotPathBenchmark+"$", "-benchmem", ".")
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", hotPathBenchmark, err)
	}
	m, err := parseBenchOutput(buf.String(), hotPathBenchmark)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &benchio.HotPath{Benchmark: hotPathBenchmark, Metrics: m}, nil
}

// parseBenchOutput reads ns/op, B/op and allocs/op from the result line of
// the named benchmark in `go test -bench -benchmem` output. Other columns,
// such as a b.ReportMetric unit, are skipped.
func parseBenchOutput(out, name string) (benchio.Metrics, error) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
			continue
		}
		var m benchio.Metrics
		seen := 0
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return m, fmt.Errorf("%s: value %q in %q: %w", name, f[i], sc.Text(), err)
			}
			switch f[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = uint64(v)
			case "allocs/op":
				m.AllocsPerOp = uint64(v)
			default:
				continue
			}
			seen++
		}
		if seen != 3 {
			return m, fmt.Errorf("%s: %q lacks ns/op, B/op or allocs/op", name, sc.Text())
		}
		return m, nil
	}
	return benchio.Metrics{}, errors.New(name + ": no result line in the go test output")
}

// runVerdict prints the regression verdict to w and returns the process
// exit code: 0 on pass, 1 on breach, 2 on operational errors.
func runVerdict(w io.Writer, currentPath, againstPath string) int {
	if againstPath == "" {
		var err error
		if againstPath, err = predecessor(currentPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	baseline, err := benchio.Read(againstPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	current, err := benchio.Read(currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(w, "comparing %s (schema %d) against %s (schema %d)\n",
		filepath.Base(currentPath), current.Schema, filepath.Base(againstPath), baseline.Schema)
	v := compareReports(baseline, current)
	io.WriteString(w, v.render())
	if !v.pass() {
		return 1
	}
	return 0
}

// predecessor finds the BENCH file numerically before currentPath in the
// same directory.
func predecessor(currentPath string) (string, error) {
	dir := filepath.Dir(currentPath)
	paths, err := benchio.List(dir)
	if err != nil {
		return "", err
	}
	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			return p
		}
		return a
	}
	prev := ""
	for _, p := range paths {
		if abs(p) == abs(currentPath) {
			if prev == "" {
				return "", fmt.Errorf("bench: %s has no predecessor in %s", currentPath, dir)
			}
			return prev, nil
		}
		prev = p
	}
	return "", fmt.Errorf("bench: %s not found among BENCH files in %s", currentPath, dir)
}
