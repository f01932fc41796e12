// Command perfbench is the repository's benchmark. It drives the simulator
// and the cdpd cluster only through their public functions and HTTP API,
// measures one workload for a fixed time, checks every output it can, and
// prints the metrics BENCHMARK.json names:
//
//	bash perfbench/run.sh --workload pointer-sweep --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the time and traced for
// the other half, and prints the per-layer metrics of the traced half plus
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchio"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, the sample count behind each, and
// the failures found by the output checks.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// set records a metric and prints it with its unit and sample count.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	if math.IsInf(v, 1) {
		// A latency percentile that falls on a failed op; JSON has no
		// infinity, and the largest number still reads as missed.
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-26s %16.6f %-7s n=%-6d %s\n", name, v, unit, n, note)
}

// fail counts one failed op and keeps the first few reasons for the log.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// runners maps each BENCHMARK.json workload to the function that runs it.
var runners = map[string]func(options, *report) error{
	"pointer-sweep": runPointerSweep,
	"core-fresh":    runCoreFresh,
	"cdpd-mix":      runCdpdMix,
}

// maxLoad caps goroutines and connections generating load at the host's
// CPU count and at the two the workloads are specified with.
func maxLoad() int { return min(2, runtime.NumCPU()) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var probe bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: pointer-sweep, core-fresh or cdpd-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 12, "length of the measured region in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for profiles and span dumps")
	fs.BoolVar(&probe, "probe-start", false, "start up as core-fresh would and exit (times process start)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if probe {
		if _, err := coreFreshPlan(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	runWorkload, ok := runners[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload pointer-sweep|core-fresh|cdpd-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	steal0, total0, ok0 := cpuTicks()
	env := fingerprint()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	rep := &report{w: stdout, metrics: map[string]metric{}}
	if err := runWorkload(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !o.trace {
		kb, ok := benchio.PeakRSS()
		if !ok {
			fmt.Fprintln(stderr, "perfbench: peak RSS unavailable on this platform")
			return 1
		}
		rep.set("peak_rss_mb", float64(kb)/1024, "MB", 1, "VmHWM at exit")
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "  FAILED: %s\n", p)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no op was attempted")
		return 1
	}
	env.StealPct = stealSince(steal0, total0, ok0)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// env is the fingerprint printed with every result, so host-time numbers
// from different machines can be told apart.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibMs    float64 `json:"calibration_ms"`
	// StealPct is the share of host CPU time the hypervisor gave other
	// guests while the run lasted (Linux /proc/stat; -1 elsewhere): a run
	// with high steal measured a slower machine.
	StealPct float64 `json:"steal_pct"`
}

// cpuTicks reads the aggregate steal and total ticks of /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSince is the steal share in percent since the given reading.
func stealSince(steal0, total0 uint64, ok0 bool) float64 {
	steal, total, ok := cpuTicks()
	if !ok || !ok0 || total == total0 {
		return -1
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}

// calibrationRounds is the fixed CPU-bound loop timed for env.CalibMs.
const calibrationRounds = 20_000_000

func fingerprint() env {
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		calibrationSink = calibrate(calibrationRounds)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CalibMs: median(times)}
}

var calibrationSink uint64

// calibrate runs a xorshift chain the compiler cannot fold away.
func calibrate(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// opResult is the outcome of one timed op.
type opResult struct {
	index  int
	ms     float64
	err    error
	uops   uint64 // µops the op simulated
	cached bool   // cdpd-mix: the response came from the result cache
}

// region is how long a measured region took: wall time, and the CPU time
// all of the process's threads used in it.
type region struct{ wall, cpu time.Duration }

// closedLoop runs op on the given number of goroutines, each starting the
// next op index as soon as its previous op returns, until d has elapsed.
// Ops started before the deadline run to completion. With cpuTimed each
// goroutine keeps its OS thread and an op's latency is the thread's CPU
// time; otherwise it is wall time. It returns the results in index order.
func closedLoop(workers int, d time.Duration, cpuTimed bool, op func(i int) opResult) ([]opResult, region) {
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(d)
	var (
		mu   sync.Mutex
		next int
		out  []opResult
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock := func() time.Duration { return time.Since(start) }
			if cpuTimed {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				clock = threadCPU
			}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
				t0 := clock()
				r := op(i)
				r.index = i
				r.ms = float64((clock() - t0).Nanoseconds()) / 1e6
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	reg := region{wall: time.Since(start), cpu: processCPU() - cpu0}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out, reg
}

// phaseTimes splits the run: untraced runs measure the whole time; traced
// runs measure half untraced (for the overhead figure) and half traced.
func phaseTimes(o options) (untraced, traced time.Duration) {
	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		return total, 0
	}
	return total / 2, total - total/2
}

// reportLatency sets op_p50_ms and op_tail_ms; failed ops count as +Inf.
func reportLatency(rep *report, ops []opResult, what string) error {
	ms := make([]float64, len(ops))
	for i, r := range ops {
		ms[i] = r.ms
		if r.err != nil {
			ms[i] = math.Inf(1)
		}
	}
	s, err := summarizeLatency(ms)
	if err != nil {
		return err
	}
	rep.set("op_p50_ms", s.p50, "ms", s.n, what)
	rep.set("op_tail_ms", s.tail, "ms", s.n, s.tailLabel+" of "+what+" (highest percentile with >=10 samples beyond)")
	return nil
}

// reportOverhead sets trace.overhead_pct from untraced and traced rates.
func reportOverhead(rep *report, untraced, traced float64, n int, what string) {
	pct := 0.0
	if traced > 0 {
		pct = 100 * (untraced/traced - 1)
	}
	rep.set("trace.overhead_pct", pct, "%", n, fmt.Sprintf("%s untraced %.6g vs traced %.6g", what, untraced, traced))
}

// outPath names a per-run artifact in the output directory.
func outPath(o options, kind string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, kind))
}

var errNoOps = errors.New("the measured region completed no op")
