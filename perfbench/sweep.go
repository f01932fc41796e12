package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// simOps is the reproduction's per-benchmark trace budget, which both
// simulation workloads run at.
const simOps = workloads.DefaultOps

// sweepBenchmarks are the pointer-heavy traces of pointer-sweep: they issue
// the most content prefetches and speculative walks, so bus, tlb, core and
// the sim memory system do most of their work here.
var sweepBenchmarks = []string{"verilog-gate", "b2b", "slsb", "tpcc-1"}

// freshBenchmarks are core-fresh's core-bound traces (MPTU <= 1.9, almost
// no prefetch traffic): cpu and generation dominate, the memory system
// idles.
var freshBenchmarks = []string{"proE", "rc3", "b2c", "creation"}

// paperSpeedup is the paper's Figure 9 best point (depth 3, reinforcement,
// p0.n3), printed beside cdp_speedup for context only.
const paperSpeedup = 1.126

// setupRepeats is how many times a workload's set-up runs; setup_s is the
// median.
const setupRepeats = 3

// recheckOps is how many of the first ops are run again after the
// measured region to check that they repeat exactly.
const recheckOps = 4

// baseConfig is the stride-only Table 1 machine scaled to the trace
// budget exactly as the reproduction and cdpd scale it.
func baseConfig(ops int) sim.Config {
	cfg := sim.Default()
	cfg.WarmupOps = uint64(ops / 8)
	cfg.MPTUBucketOps = uint64(ops / 48)
	return cfg
}

// fig9Configs is the Figure 9 grid: the stride baseline, then CDP at depth
// {9,5,3} × reinforcement off/on × prev/next {p0.n0..p0.n4, p1.n0, p1.n1}.
func fig9Configs(ops int) []sim.Config {
	cfgs := []sim.Config{baseConfig(ops)}
	widths := [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 0}, {1, 1}}
	for _, reinf := range []bool{false, true} {
		for _, depth := range []int{9, 5, 3} {
			for _, w := range widths {
				cc := core.DefaultConfig
				cc.DepthThreshold, cc.Reinforce = depth, reinf
				cc.PrevLines, cc.NextLines = w[0], w[1]
				cfgs = append(cfgs, baseConfig(ops).WithContent(cc))
			}
		}
	}
	return cfgs
}

func specs(names []string) ([]workloads.Spec, error) {
	out := make([]workloads.Spec, len(names))
	for i, n := range names {
		s, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// genSeed is the generation seed of one checkpoint: the run seed, the
// benchmark, and (core-fresh) the op index.
func genSeed(seed int64, name string, op int) int64 {
	return int64(mixSeed(seed, nameHash(name), uint64(op)) >> 1)
}

// simPrint is what a repeated simulation must reproduce exactly.
type simPrint struct {
	counters stats.Counters
	cycles   int64
	uops     uint64
}

// detCheck remembers the first outcome of every (benchmark, config, seed)
// and counts each repeat that differs from it.
type detCheck struct {
	mu       sync.Mutex
	seen     map[string]simPrint
	repeats  int
	mismatch []string
}

func newDetCheck() *detCheck { return &detCheck{seen: map[string]simPrint{}} }

func (d *detCheck) observe(key string, res *sim.Result) {
	p := simPrint{counters: *res.Counters, cycles: res.MeasuredCycles, uops: res.MeasuredUops}
	d.mu.Lock()
	defer d.mu.Unlock()
	first, ok := d.seen[key]
	if !ok {
		d.seen[key] = p
		return
	}
	d.repeats++
	if first != p {
		d.mismatch = append(d.mismatch, key)
	}
}

// runSim is one traced call into sim.Run.
func runSim(tr *tracer, op, parent int, ck *trace.Checkpoint, cfg sim.Config) *sim.Result {
	id := tr.begin("sim.Run", op, parent)
	res := sim.Run(ck, cfg)
	tr.end(id)
	return res
}

// generate is one traced call into Spec.Generate.
func generate(tr *tracer, op, parent int, s workloads.Spec, seed int64) *trace.Checkpoint {
	id := tr.begin("workloads.Generate", op, parent)
	ck := s.Generate(workloads.GenConfig{Ops: simOps, Seed: seed})
	tr.end(id)
	return ck
}

// parallel runs f(0..n-1) on at most maxLoad goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < maxLoad(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// modelCheck simulates the stride baseline and the paper's CDP point on
// the reproduction's own checkpoints (workloads.Checkpoint, independent of
// the run seed) and returns the geomean of stride ÷ CDP measured cycles.
// It is simulated time, so it repeats exactly until the model changes.
func modelCheck(names []string, ops int) (float64, error) {
	ss, err := specs(names)
	if err != nil {
		return 0, err
	}
	cfgs := []sim.Config{baseConfig(ops), baseConfig(ops).WithContent(core.DefaultConfig)}
	cycles := make([]int64, 2*len(ss))
	parallel(len(cycles), func(i int) {
		cycles[i] = sim.Run(workloads.Checkpoint(ss[i/2], ops), cfgs[i%2]).MeasuredCycles
	})
	ratios := make([]float64, len(ss))
	for i := range ss {
		if cycles[2*i+1] == 0 {
			return 0, fmt.Errorf("modelCheck: %s measured no cycles", names[i])
		}
		ratios[i] = float64(cycles[2*i]) / float64(cycles[2*i+1])
	}
	return geomean(ratios), nil
}

func reportModelCheck(rep *report, names []string, ops int) error {
	sp, err := modelCheck(names, ops)
	if err != nil {
		return err
	}
	rep.set("cdp_speedup", sp, "x", len(names), fmt.Sprintf("geomean stride/CDP cycles at d3.reinf.p0.n3 over %v at %d µops (paper: %.3f, model unvalidated)", names, ops, paperSpeedup))
	return nil
}

// memDelta measures heap allocation across a region.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (m memDelta) since(before memDelta) memDelta {
	return memDelta{m.mallocs - before.mallocs, m.bytes - before.bytes}
}

// simLayers reports the per-layer metrics the simulator's own counters
// and the benchmark's allocation deltas give, over the traced phase's
// results. retired counts every µop the runs simulated; the counter
// ratios cover the post-warm-up regions the counters measure.
func simLayers(rep *report, results []*sim.Result, alloc memDelta) {
	var c stats.Counters
	var measured, retired uint64
	var cycles int64
	for _, r := range results {
		x := r.Counters
		measured += r.MeasuredUops
		retired += r.Core.Retired
		cycles += r.MeasuredCycles
		c.MissNoPF += x.MissNoPF
		c.L2Misses += x.L2Misses
		c.PrefDroppedQueue += x.PrefDroppedQueue
		c.PrefSquashed += x.PrefSquashed
		c.Walks += x.Walks
		c.CDPWalks += x.CDPWalks
		for s := 0; s < stats.NumSources; s++ {
			c.PrefIssued[s] += x.PrefIssued[s]
			c.FullHits[s] += x.FullHits[s]
			c.PartialHits[s] += x.PartialHits[s]
		}
	}
	n := len(results)
	kuops := float64(measured) / 1000
	if kuops == 0 {
		kuops = 1
	}
	var issued uint64
	for s := 0; s < stats.NumSources; s++ {
		issued += c.PrefIssued[s]
	}
	// A bus transaction is a demand miss with no prefetch in flight or a
	// prefetch that entered the memory queues and was not squashed.
	rep.set("bus.transactions_per_kuop", float64(c.MissNoPF+issued-c.PrefSquashed)/kuops, "1/kuop", n, "demand misses + queued prefetches - squashed")
	rep.set("bus.queue_full_drops", float64(c.PrefDroppedQueue)/kuops, "1/kuop", n, "prefetches dropped at a full arbiter")
	rep.set("bus.squashed", float64(c.PrefSquashed)/kuops, "1/kuop", n, "prefetches squashed for a demand request")
	rep.set("tlb.walks_per_kuop", float64(c.Walks+c.CDPWalks)/kuops, "1/kuop", n, "demand + CDP page walks")
	cdpIssued := c.PrefIssued[cache.SrcContent]
	rep.set("core.issued_per_kuop", float64(cdpIssued)/kuops, "1/kuop", n, "content prefetches issued")
	acc := 0.0
	if cdpIssued > 0 {
		acc = float64(c.UsefulPrefetches(cache.SrcContent)) / float64(cdpIssued)
	}
	rep.set("core.accuracy", acc, "ratio", n, "useful / issued content prefetches")
	rep.set("cache.l2_mptu", float64(c.L2Misses)/kuops, "1/kuop", n, "demand UL2 misses")
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(measured) / float64(cycles)
	}
	rep.set("cpu.ipc", ipc, "uop/cyc", n, "measured µops / measured cycles")
	rk := float64(retired) / 1000
	if rk == 0 {
		rk = 1
	}
	rep.set("sim.allocs_per_kuop", float64(alloc.mallocs)/rk, "1/kuop", n, "heap objects allocated across sim.Run")
	rep.set("sim.alloc_mb_per_muop", float64(alloc.bytes)/1e6/(rk/1000), "MB/Muop", n, "heap bytes allocated across sim.Run")
}

// reportSpans sets the span-derived layer metrics and writes the spans out.
func reportSpans(rep *report, o options, tr, setupTr *tracer, opSpan string) error {
	gens := append(setupTr.named("workloads.Generate"), tr.named("workloads.Generate")...)
	rep.set("workloads.gen_ms", median(gens), "ms", len(gens), "median Spec.Generate call (set-up included)")
	self := tr.selfMs()
	var opTotal, genTotal float64
	for _, v := range tr.named(opSpan) {
		opTotal += v
	}
	for _, v := range tr.named("workloads.Generate") {
		genTotal += v
	}
	share := 0.0
	if opTotal > 0 {
		share = genTotal / opTotal
	}
	rep.set("workloads.gen_share", share, "ratio", len(tr.named(opSpan)), fmt.Sprintf("Generate time / op time in the measured region (op self time %.1f ms)", self[opSpan]))
	runs := tr.named("sim.Run")
	rep.set("sim.run_ms", median(runs), "ms", len(runs), "median sim.Run call")
	return tr.write(outPath(o, "spans.json"))
}

// sweepCell is one op of pointer-sweep: cells cycle through the grid
// config by config, each config over all four checkpoints, so any prefix
// of the sequence is balanced across benchmarks.
func sweepCell(i, nCfg, nBench int) (cfg, bench int) {
	k := i % (nCfg * nBench)
	return k / nBench, k % nBench
}

func runPointerSweep(o options, rep *report) error {
	ss, err := specs(sweepBenchmarks)
	if err != nil {
		return err
	}
	var setupTr *tracer
	if o.trace {
		setupTr = newTracer()
	}
	// Set-up is checkpoint generation, repeated; the last set is kept.
	var cks []*trace.Checkpoint
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		cks = nil
		runtime.GC()
		cpu0 := processCPU()
		set := make([]*trace.Checkpoint, len(ss))
		parallel(len(ss), func(b int) {
			set[b] = generate(setupTr, -1, -1, ss[b], genSeed(o.seed, ss[b].Name, 0))
		})
		setups = append(setups, (processCPU() - cpu0).Seconds())
		cks = set
	}
	runtime.GC()

	cfgs := fig9Configs(simOps)
	det := newDetCheck()
	cell := func(tr *tracer, i int) *sim.Result {
		c, b := sweepCell(i, len(cfgs), len(cks))
		res := runSim(tr, i, -1, cks[b], cfgs[c])
		det.observe(fmt.Sprintf("%s/%d", ss[b].Name, c), res)
		return res
	}
	phase := func(d time.Duration, tr *tracer) ([]opResult, []*sim.Result, region) {
		results := make(map[int]*sim.Result)
		var mu sync.Mutex
		ops, reg := closedLoop(maxLoad(), d, true, func(i int) opResult {
			res := cell(tr, i)
			mu.Lock()
			results[i] = res
			mu.Unlock()
			return opResult{uops: res.Core.Retired}
		})
		list := make([]*sim.Result, 0, len(ops))
		for _, op := range ops {
			list = append(list, results[op.index])
		}
		return ops, list, reg
	}

	untracedD, tracedD := phaseTimes(o)
	opsA, _, regA := phase(untracedD, nil)
	rep.attempted += len(opsA)
	if len(opsA) == 0 {
		return errNoOps
	}
	rateA := uopRate(opsA, regA.cpu)

	if !o.trace {
		rep.set("setup_s", median(setups), "s", len(setups), "median CPU time of checkpoint-generation set-ups")
		rep.set("uops_per_s", rateA, "uop/s", len(opsA), fmt.Sprintf("per CPU second; cells of the %d-config grid on %d goroutines, %.1f s wall", len(cfgs), maxLoad(), regA.wall.Seconds()))
		rep.set("req_per_s", float64(len(opsA))/regA.cpu.Seconds(), "1/s", len(opsA), "cells per CPU second")
		if err := reportLatency(rep, opsA, "one grid cell (thread CPU time)"); err != nil {
			return err
		}
	} else {
		tr := newTracer()
		prof, err := startProfile(outPath(o, "cpu.pb.gz"))
		if err != nil {
			return err
		}
		before := readMem()
		opsB, results, regB := phase(tracedD, tr)
		alloc := readMem().since(before)
		if err := prof.stop(); err != nil {
			return err
		}
		rep.attempted += len(opsB)
		if len(opsB) == 0 {
			return errNoOps
		}
		reportOverhead(rep, rateA, uopRate(opsB, regB.cpu), len(opsB), "uops_per_s")
		if err := reportSpans(rep, o, tr, setupTr, "sim.Run"); err != nil {
			return err
		}
		simLayers(rep, results, alloc)
		if err := reportCPU(rep, prof); err != nil {
			return err
		}
		reportIdleService(rep)
	}
	// Outside the measured region, rerun the first and the last cells of
	// the untraced phase (stride and CDP configs of every benchmark): the
	// same (benchmark, config, seed) must give identical counters and
	// cycles.
	again := map[int]bool{}
	for k := 0; k < recheckOps && k < len(opsA); k++ {
		again[k], again[len(opsA)-1-k] = true, true
	}
	var idx []int
	for i := range again {
		idx = append(idx, i)
	}
	parallel(len(idx), func(j int) { cell(nil, idx[j]) })
	fmt.Fprintf(rep.w, "  determinism: %d repeated cells compared, %d differed\n", det.repeats, len(det.mismatch))
	for _, k := range det.mismatch {
		rep.fail("cell %s: repeated run differs from its first run", k)
	}
	if o.trace {
		return nil
	}
	cks = nil // the model check generates its own checkpoints
	runtime.GC()
	return reportModelCheck(rep, sweepBenchmarks, simOps)
}

// uopRate is the µops the ops simulated per second of d.
func uopRate(ops []opResult, d time.Duration) float64 {
	var uops uint64
	for _, r := range ops {
		uops += r.uops
	}
	return float64(uops) / d.Seconds()
}

// reportCPU sets the *.cpu_pct metrics from the traced phase's profile.
func reportCPU(rep *report, prof *profile) error {
	pct, err := prof.layerCPU()
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		rep.set(l.metric, pct[l.metric], "%", 1, "flat CPU samples in "+l.pkg)
	}
	rep.set("runtime.gc_pct", pct["runtime.gc_pct"], "%", 1, "CPU samples under GC workers, sweeping and mark assists")
	return nil
}

// freshPlan is what core-fresh resolves before its first op.
type freshPlan struct {
	specs []workloads.Spec
	cfg   sim.Config
}

func coreFreshPlan() (freshPlan, error) {
	ss, err := specs(freshBenchmarks)
	if err != nil {
		return freshPlan{}, err
	}
	cfg := baseConfig(simOps)
	return freshPlan{specs: ss, cfg: cfg}, cfg.Validate()
}

// processStart measures the CPU time of fresh processes of this binary
// that start up as core-fresh does and exit; core-fresh's set-up is
// process start only.
func processStart(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--probe-start")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("start probe: %w", err)
		}
		out = append(out, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return out, nil
}

// startProbes is how many process starts core-fresh's setup_s is the
// median of.
const startProbes = 9

func runCoreFresh(o options, rep *report) error {
	plan, err := coreFreshPlan()
	if err != nil {
		return err
	}
	var starts []float64
	if !o.trace {
		if starts, err = processStart(startProbes); err != nil {
			return err
		}
	}
	det := newDetCheck()
	// op generates and simulates op i; alloc, when set, accumulates the
	// heap allocated inside sim.Run.
	op := func(tr *tracer, i int, alloc *memDelta) *sim.Result {
		s := plan.specs[i%len(plan.specs)]
		id := tr.begin("op", i, -1)
		ck := generate(tr, i, id, s, genSeed(o.seed, s.Name, i))
		var before memDelta
		if alloc != nil {
			before = readMem()
		}
		res := runSim(tr, i, id, ck, plan.cfg)
		if alloc != nil {
			d := readMem().since(before)
			alloc.mallocs += d.mallocs
			alloc.bytes += d.bytes
		}
		tr.end(id)
		det.observe(fmt.Sprintf("%s/op%d", s.Name, i), res)
		return res
	}

	untracedD, tracedD := phaseTimes(o)
	opsA, regA := closedLoop(1, untracedD, true, func(i int) opResult {
		return opResult{uops: op(nil, i, nil).Core.Retired}
	})
	rep.attempted += len(opsA)
	if len(opsA) == 0 {
		return errNoOps
	}
	rateA := uopRate(opsA, regA.cpu)

	if !o.trace {
		rep.set("setup_s", median(starts), "s", len(starts), "median CPU time of a process that starts up as core-fresh does and exits")
		rep.set("uops_per_s", rateA, "uop/s", len(opsA), fmt.Sprintf("per CPU second; generate + simulate one at a time, %.1f s wall", regA.wall.Seconds()))
		rep.set("req_per_s", float64(len(opsA))/regA.cpu.Seconds(), "1/s", len(opsA), "generate + simulate ops per CPU second")
		if err := reportLatency(rep, opsA, "generate + simulate (thread CPU time)"); err != nil {
			return err
		}
		// Outside the measured region, rerun the first ops: the same
		// (benchmark, seed) must give identical counters and cycles.
		runtime.GC()
		for i := 0; i < min(recheckOps, len(opsA)); i++ {
			op(nil, i, nil)
		}
		if err := reportModelCheck(rep, freshBenchmarks, simOps); err != nil {
			return err
		}
	} else {
		// The traced phase replays the untraced phase's op sequence, so
		// every op it reaches is also a determinism repeat.
		tr := newTracer()
		prof, err := startProfile(outPath(o, "cpu.pb.gz"))
		if err != nil {
			return err
		}
		var results []*sim.Result
		var alloc memDelta
		opsB, regB := closedLoop(1, tracedD, true, func(i int) opResult {
			res := op(tr, i, &alloc)
			results = append(results, res)
			return opResult{uops: res.Core.Retired}
		})
		if err := prof.stop(); err != nil {
			return err
		}
		rep.attempted += len(opsB)
		if len(opsB) == 0 {
			return errNoOps
		}
		reportOverhead(rep, rateA, uopRate(opsB, regB.cpu), len(opsB), "uops_per_s")
		if err := reportSpans(rep, o, tr, nil, "op"); err != nil {
			return err
		}
		simLayers(rep, results, alloc)
		if err := reportCPU(rep, prof); err != nil {
			return err
		}
		reportIdleService(rep)
	}
	fmt.Fprintf(rep.w, "  determinism: %d repeated ops compared, %d differed\n", det.repeats, len(det.mismatch))
	for _, k := range det.mismatch {
		rep.fail("op %s: repeated generate + simulate differs from its first run", k)
	}
	return nil
}
