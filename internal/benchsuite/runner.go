package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/benchio"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// hotPathBefore is BenchmarkSimulatorUopsPerSecond measured at the commit
// named by hotPathBeforeRef — the last tree before the allocation-and-
// dispatch pass over the simulation hot path. Keeping the baseline in
// every report makes each BENCH file self-describing. (Moved here from
// cmd/bench when the suite runner took over measurement.)
var hotPathBefore = benchio.Metrics{
	NsPerOp:     39_227_232,
	BytesPerOp:  12_917_652,
	AllocsPerOp: 421_396,
}

const hotPathBeforeRef = "3ec0134"

// Hot-path measurement constants. These must not drift: the verdict gates
// allocs/op at zero growth against prior BENCH files, so the measured
// workload has to stay byte-identical to what bench_test.go's
// BenchmarkSimulatorUopsPerSecond and every earlier cmd/bench ran.
const (
	hotPathBenchmark = "BenchmarkSimulatorUopsPerSecond"
	hotPathWorkload  = "tpcc-1"
	hotPathWarmupOps = 20_000
)

// RunOptions configures one suite execution.
type RunOptions struct {
	// ProfileDir receives profiler artifacts ("" = "artifacts"). Created
	// on demand; unused when no job declares profilers.
	ProfileDir string
	// Log receives human narration (nil discards).
	Log func(format string, args ...any)
}

func (o *RunOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// RunSuite executes every job of the suite in declaration order and
// returns the schema-v2 report. Jobs run sequentially — profilers are
// process-global, and sequential runs keep each measurement clean of its
// neighbours' cache and GC pressure.
func RunSuite(s *Suite, opts RunOptions) (*benchio.Report, error) {
	if opts.ProfileDir == "" {
		opts.ProfileDir = "artifacts"
	}
	for _, j := range s.Jobs {
		if len(j.Profilers) > 0 {
			if err := os.MkdirAll(opts.ProfileDir, 0o755); err != nil {
				return nil, fmt.Errorf("profile dir: %w", err)
			}
			break
		}
	}

	tol := s.Tolerance
	report := &benchio.Report{
		Schema:      benchio.SchemaVersion,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Suite:       s.Name,
		Tolerance:   &tol,
		Ops:         s.defaultOps(),
	}

	for i := range s.Jobs {
		j := &s.Jobs[i]
		reps := j.repeat(s)
		for rep := 1; rep <= reps; rep++ {
			var err error
			switch j.Kind {
			case KindExperiments:
				err = runExperimentsJob(s, j, rep, reps, report, &opts)
			case KindHotPath:
				err = runHotPathJob(s, j, rep, report, &opts)
			case KindCluster:
				err = runClusterJob(s, j, rep, report, &opts)
			}
			if err != nil {
				return nil, fmt.Errorf("job %q: %w", j.Name, err)
			}
		}
	}

	if kb, ok := benchio.PeakRSS(); ok {
		report.PeakRSSKB = benchio.U64(kb)
	} else {
		report.Notes = append(report.Notes, benchio.NoteRSSUnsupported)
	}
	return report, nil
}

func (s *Suite) defaultOps() int {
	if s.Ops > 0 {
		return s.Ops
	}
	return 60_000
}

// stem names profiler artifacts: <job>-<unit>[-repN].
func stem(job, unit string, rep, reps int) string {
	s := job + "-" + unit
	if reps > 1 {
		s = fmt.Sprintf("%s-rep%d", s, rep)
	}
	return s
}

// runExperimentsJob measures each workload unprofiled first (telemetry
// must not carry profiler overhead), then repeats the run once per
// declared profiler for the artifacts.
func runExperimentsJob(s *Suite, j *Job, rep, reps int, report *benchio.Report, opts *RunOptions) error {
	ids := j.Workloads
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	opt := experiments.Options{Ops: j.ops(s), Reps: s.Representatives}
	for _, id := range ids {
		r, err := experiments.Get(id)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		simsBefore := experiments.SimsRun()
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := r.Run(opt)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if out.Text == "" {
			return fmt.Errorf("experiment %s produced no output", r.ID)
		}
		sims := experiments.SimsRun() - simsBefore
		e := benchio.Experiment{
			ID:      r.ID,
			Title:   r.Title,
			Job:     j.Name,
			WallMS:  float64(wall.Nanoseconds()) / 1e6,
			AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			Allocs:  after.Mallocs - before.Mallocs,
		}
		if reps > 1 {
			e.Rep = rep
		}
		if sims > 0 {
			e.Sims = benchio.U64(sims)
			e.SimsPerSec = benchio.F64(float64(sims) / wall.Seconds())
			opts.logf("%-10s %8.0f ms  %3d sims  %6.1f sims/s  %8.1f MB alloc",
				r.ID, e.WallMS, sims, *e.SimsPerSec, e.AllocMB)
		} else {
			opts.logf("%-10s %8.0f ms  wall-only  %8.1f MB alloc", r.ID, e.WallMS, e.AllocMB)
		}
		if len(j.Profilers) > 0 {
			profs, err := profiledRun(opts.ProfileDir, stem(j.Name, id, rep, reps), j.Profilers,
				func() error { _, err := r.Run(opt); return err })
			if err != nil {
				return err
			}
			e.Profiles = profs
		}
		report.Experiments = append(report.Experiments, e)
	}
	return nil
}

// runHotPathJob reruns bench_test.go's BenchmarkSimulatorUopsPerSecond
// workload under testing.Benchmark. With repeat > 1 the best (lowest
// ns/op) repetition is kept, the usual benchmarking practice; allocation
// counts are deterministic across repetitions.
func runHotPathJob(s *Suite, j *Job, rep int, report *benchio.Report, opts *RunOptions) error {
	spec, err := workloads.ByName(hotPathWorkload)
	if err != nil {
		return err
	}
	ck := workloads.Checkpoint(spec, j.ops(s))
	cfg := sim.Default().WithContent(core.DefaultConfig)
	cfg.WarmupOps = hotPathWarmupOps

	// Quiesce the heap first: after an experiment-matrix job the process
	// carries pending sweeps and finalizers whose allocations would land
	// inside the benchmark window and show up as phantom allocs/op growth
	// against the zero-tolerance ratchet (BENCH_1/2 measured the hot path
	// in a fresh process).
	runtime.GC()
	runtime.GC()

	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := sim.Run(ck, cfg); r.Core.Retired == 0 {
				benchErr = fmt.Errorf("%s: nothing retired", hotPathBenchmark)
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return benchErr
	}
	after := benchio.Metrics{
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  uint64(res.AllocedBytesPerOp()),
		AllocsPerOp: uint64(res.AllocsPerOp()),
	}
	opts.logf("%s rep %d: %.1f ms/op, %d B/op, %d allocs/op",
		hotPathBenchmark, rep, after.NsPerOp/1e6, after.BytesPerOp, after.AllocsPerOp)

	if report.HotPath == nil || after.NsPerOp < report.HotPath.After.NsPerOp {
		var profiles []benchio.Profile
		if report.HotPath != nil {
			profiles = report.HotPath.Profiles
		}
		report.HotPath = &benchio.HotPath{
			Benchmark: hotPathBenchmark,
			BeforeRef: hotPathBeforeRef,
			Before:    hotPathBefore,
			After:     after,
			Profiles:  profiles,
		}
	}

	// Profile a batch of simulations per profiler — a single ~23 ms run
	// yields only 2–3 samples at the CPU profiler's 100 Hz, too few to
	// rank hot functions reliably — and keep profiler overhead out of the
	// measured numbers above.
	if len(j.Profilers) > 0 && rep == 1 {
		const profiledSims = 10
		profs, err := profiledRun(opts.ProfileDir, stem(j.Name, "hotpath", 1, 1), j.Profilers,
			func() error {
				for range profiledSims {
					if r := sim.Run(ck, cfg); r.Core.Retired == 0 {
						return fmt.Errorf("profiled run retired nothing")
					}
				}
				return nil
			})
		if err != nil {
			return err
		}
		report.HotPath.Profiles = profs
	}
	return nil
}

// runClusterJob brings up a real in-process cdpd cluster (coordinator +
// workers, the chaos harness's bring-up with its teardown, journal, and
// goroutine-leak checks) and drives concurrent submissions through the
// coordinator's front door, then reconciles the client-observed latency
// distribution against the workers' own lock-free histograms.
func runClusterJob(s *Suite, j *Job, rep int, report *benchio.Report, opts *RunOptions) error {
	cr := benchio.ClusterRun{Job: j.Name, Workers: j.Workers, Requests: j.Requests}

	type outcome struct {
		dur time.Duration
		ok  bool
	}
	results := make([]outcome, j.Requests)
	var merged map[string]api.HistogramSnapshot

	scenario := chaos.Scenario{
		Name:        "bench-" + j.Name,
		Description: "bench suite cluster latency job",
		Run: func(r *chaos.Run) {
			r.StartCoordinator(nil)
			for i := 0; i < j.Workers; i++ {
				r.StartWorker(fmt.Sprintf("w%d", i+1))
			}
			r.WaitForWorkers(j.Workers)

			url := r.CoordinatorURL() + "/v1/sim?wait=1"
			start := time.Now()
			var wg sync.WaitGroup
			sem := make(chan struct{}, j.Concurrency)
			for i := 0; i < j.Requests; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					// Unique op counts make every request a distinct cache
					// key, so each one really simulates: the reconciliation
					// below counts on one run-duration observation per
					// successful request.
					req := api.SimRequest{
						Benchmark: j.Benchmarks[i%len(j.Benchmarks)],
						Ops:       j.ops(s) + i,
						CDP:       true,
					}
					body, _ := json.Marshal(req)
					t0 := time.Now()
					resp, err := http.Post(url, "application/json", bytes.NewReader(body))
					d := time.Since(t0)
					ok := err == nil && resp.StatusCode == http.StatusOK
					if resp != nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					results[i] = outcome{dur: d, ok: ok}
				}(i)
			}
			wg.Wait()
			cr.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6

			merged = map[string]api.HistogramSnapshot{}
			for _, name := range r.WorkerNames() {
				w := r.Worker(name)
				if w == nil {
					continue
				}
				for series, snap := range w.API().LatencySnapshots() {
					m, ok := merged[series]
					if !ok {
						merged[series] = snap
						continue
					}
					if err := m.Merge(snap); err != nil {
						cr.Notes = append(cr.Notes, err.Error())
						continue
					}
					merged[series] = m
				}
			}
		},
	}
	chaosRep := chaos.Execute(scenario, chaos.Options{Seed: int64(rep), Log: opts.Log})
	for _, v := range chaosRep.Violations {
		cr.Notes = append(cr.Notes, "harness: "+v)
	}

	var clientDurs []time.Duration
	for _, o := range results {
		if o.ok {
			clientDurs = append(clientDurs, o.dur)
		} else {
			cr.Errors++
		}
	}
	cr.Client = clientSummary(clientDurs)

	runDur := merged["cdpd_run_duration"]
	cr.Server = benchio.LatencySummary{
		Count: runDur.Count,
		P50MS: runDur.Quantile(0.50) * 1e3,
		P90MS: runDur.Quantile(0.90) * 1e3,
		P99MS: runDur.Quantile(0.99) * 1e3,
	}
	qw := merged["cdpd_queue_wait"]
	cr.QueueWaitP99MS = qw.Quantile(0.99) * 1e3

	// Reconciliation. The bucket quantiles above are estimates, but two
	// exact invariants must hold when the cluster behaved: every successful
	// request ran exactly one simulation (unique cache keys, one placement each),
	// and the mean client round trip can only exceed the mean server-side
	// run duration (the round trip contains it).
	cr.Consistent = len(chaosRep.Violations) == 0
	if int(runDur.Count) != len(clientDurs) {
		cr.Consistent = false
		cr.Notes = append(cr.Notes, fmt.Sprintf(
			"server ran %d simulations for %d successful requests", runDur.Count, len(clientDurs)))
	}
	if len(clientDurs) == 0 {
		cr.Consistent = false
		cr.Notes = append(cr.Notes, "no successful requests")
	} else {
		var sum time.Duration
		for _, d := range clientDurs {
			sum += d
		}
		clientMean := sum.Seconds() / float64(len(clientDurs))
		serverMean := 0.0
		if runDur.Count > 0 {
			serverMean = runDur.SumSecs / float64(runDur.Count)
		}
		if clientMean < serverMean {
			cr.Consistent = false
			cr.Notes = append(cr.Notes, fmt.Sprintf(
				"client mean %.3fms below server run-duration mean %.3fms",
				clientMean*1e3, serverMean*1e3))
		}
	}
	opts.logf("cluster %s: %d workers, %d/%d ok, client p50 %.1fms server p50 %.1fms consistent=%v",
		j.Name, j.Workers, len(clientDurs), j.Requests, cr.Client.P50MS, cr.Server.P50MS, cr.Consistent)

	report.Cluster = append(report.Cluster, cr)
	return nil
}

// clientSummary renders observed durations as nearest-rank percentiles in
// milliseconds.
func clientSummary(durs []time.Duration) benchio.LatencySummary {
	if len(durs) == 0 {
		return benchio.LatencySummary{}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pick := func(q float64) float64 {
		idx := int(q*float64(len(sorted))+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return float64(sorted[idx].Nanoseconds()) / 1e6
	}
	return benchio.LatencySummary{
		Count: uint64(len(sorted)),
		P50MS: pick(0.50),
		P90MS: pick(0.90),
		P99MS: pick(0.99),
		MaxMS: float64(sorted[len(sorted)-1].Nanoseconds()) / 1e6,
	}
}
