package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/jobq"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// mixOps is the µop budget of every cdpd-mix request.
const mixOps = 150_000

// mixWorkers is the cluster's worker count; each runs one simulation slot.
const mixWorkers = 2

// Fresh keys walk benchmark × CDP depth × next lines × TLB entries.
var (
	walkDepths  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	walkNexts   = []int{0, 1, 2, 3, 4}
	walkEntries = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
)

// keyWalk is a seeded walk over the fresh-key space that visits every key
// at most once: step i maps to (a·i + b) mod n with a coprime to n.
type keyWalk struct {
	benchmarks []string
	a, b, n    uint64
}

func newKeyWalk(seed int64) *keyWalk {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Name)
	}
	n := uint64(len(names) * len(walkDepths) * len(walkNexts) * len(walkEntries))
	a := 1 + mixSeed(seed, nameHash("walk.a"))%(n-1)
	for gcd(a, n) != 1 {
		a = a%(n-1) + 1
	}
	return &keyWalk{benchmarks: names, a: a, b: mixSeed(seed, nameHash("walk.b")) % n, n: n}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// at returns the i-th fresh request; ok is false once the space is spent.
func (k *keyWalk) at(i int) (api.SimRequest, bool) {
	if uint64(i) >= k.n {
		return api.SimRequest{}, false
	}
	x := (k.a*uint64(i) + k.b) % k.n
	e := walkEntries[x%uint64(len(walkEntries))]
	x /= uint64(len(walkEntries))
	next := walkNexts[x%uint64(len(walkNexts))]
	x /= uint64(len(walkNexts))
	depth := walkDepths[x%uint64(len(walkDepths))]
	x /= uint64(len(walkDepths))
	return api.SimRequest{Benchmark: k.benchmarks[x], Ops: mixOps, CDP: true, Depth: depth,
		NextLines: &next, TLBEntries: e}, true
}

// mixPlan fixes from the seed which ops are misses: in every block of four
// consecutive ops exactly one, at a seeded position, names a fresh key;
// the other three name keys already answered in the run. The i-th miss
// takes the walk's i-th key.
type mixPlan struct{ seed int64 }

func (p mixPlan) isMiss(i int) bool {
	return uint64(i%4) == mixSeed(p.seed, nameHash("mix.block"), uint64(i/4))%4
}

// freshIndex is the walk step a miss op takes.
func (p mixPlan) freshIndex(i int) int { return i / 4 }

// pick is the seeded draw a hit op uses to choose among answered keys.
func (p mixPlan) pick(i, answered int) int {
	return int(mixSeed(p.seed, nameHash("mix.pick"), uint64(i)) % uint64(answered))
}

// node is one in-process HTTP server on loopback.
type node struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serve(ln net.Listener, h http.Handler) *node {
	n := &node{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return n
}

func (n *node) close() {
	_ = n.srv.Close() // the component behind it has already drained
	<-n.done
}

// mixCluster is the coordinator and its workers.
type mixCluster struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	nodes   []*node // coordinator first
}

func startCluster() (*mixCluster, error) {
	c := &mixCluster{}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	if err != nil {
		return nil, err
	}
	c.coord = coord
	ln, err := listen()
	if err != nil {
		c.close()
		return nil, err
	}
	c.nodes = append(c.nodes, serve(ln, coord))
	for i := 0; i < mixWorkers; i++ {
		ln, err := listen()
		if err != nil {
			c.close()
			return nil, err
		}
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Name: fmt.Sprintf("w%d", i+1), SelfURL: "http://" + ln.Addr().String(), JoinURL: c.nodes[0].url,
			Queue: jobq.Config{Workers: 1},
		})
		if err != nil {
			ln.Close()
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.nodes = append(c.nodes, serve(ln, w))
		w.Start()
	}
	return c, nil
}

// waitRegistered polls the coordinator until every worker holds a lease.
func (c *mixCluster) waitRegistered(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var reply struct {
			Members []json.RawMessage `json:"members"`
		}
		if err := getJSON(hc, c.nodes[0].url+"/v1/cluster/members", &reply); err != nil {
			return err
		}
		if len(reply.Members) == mixWorkers {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("workers did not register within %s", timeout)
}

func (c *mixCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, w := range c.workers {
		_ = w.Close(ctx) // teardown after the measurement; errors change no result
	}
	if c.coord != nil {
		_ = c.coord.Close(ctx)
	}
	for _, n := range c.nodes {
		n.close()
	}
}

// scrape reads /metrics of the coordinator and every worker, in node order.
func (c *mixCluster) scrape(hc *http.Client) ([]promSample, error) {
	var out []promSample
	for _, n := range c.nodes {
		resp, err := hc.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		s, err := parseProm(string(body))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// envelope is the /v1/sim?wait=1 response.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// postSim sends one waited simulation request.
func postSim(hc *http.Client, base string, req api.SimRequest) (envelope, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return envelope{}, err
	}
	resp, err := hc.Post(base+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return envelope{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return envelope{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return envelope{}, fmt.Errorf("POST /v1/sim: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return envelope{}, fmt.Errorf("POST /v1/sim: %w", err)
	}
	return env, nil
}

// answers holds every distinct key the run has been answered for and the
// first result bytes each one got.
type answers struct {
	mu    sync.Mutex
	order []string // keys in first-answer order: the pool hits pick from
	reqs  map[string]api.SimRequest
	first map[string]json.RawMessage
}

func keyOf(req api.SimRequest) string {
	b, _ := json.Marshal(req) // a SimRequest always marshals
	return string(b)
}

// record files a response and reports whether it matches every earlier
// response for the same key.
func (a *answers) record(req api.SimRequest, result json.RawMessage) bool {
	k := keyOf(req)
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.first[k]; ok {
		return bytes.Equal(prev, result)
	}
	a.first[k] = append(json.RawMessage(nil), result...)
	a.reqs[k] = req
	a.order = append(a.order, k)
	return true
}

func (a *answers) pick(p mixPlan, i int) api.SimRequest {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reqs[a.order[p.pick(i, len(a.order))]]
}

func runCdpdMix(o options, rep *report) error {
	cpu0 := processCPU()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixWorkers + 1}}
	defer hc.CloseIdleConnections()
	c, err := startCluster()
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.waitRegistered(hc, 30*time.Second); err != nil {
		return err
	}
	ans := &answers{reqs: map[string]api.SimRequest{}, first: map[string]json.RawMessage{}}
	// Warm-up: one stride-only request per benchmark memoises every
	// checkpoint and seeds the pool of answered keys.
	all := workloads.All()
	var warmErr error
	var warmMu sync.Mutex
	parallel(len(all), func(i int) {
		req := api.SimRequest{Benchmark: all[i].Name, Ops: mixOps}
		env, err := postSim(hc, c.nodes[0].url, req)
		warmMu.Lock()
		defer warmMu.Unlock()
		if err != nil {
			warmErr = err
			return
		}
		ans.record(req, env.Result)
	})
	if warmErr != nil {
		return fmt.Errorf("warm-up: %w", warmErr)
	}
	setup := (processCPU() - cpu0).Seconds()

	plan := mixPlan{seed: o.seed}
	walk := newKeyWalk(o.seed)
	var failMu sync.Mutex
	op := func(tr *tracer, i int) opResult {
		var req api.SimRequest
		if plan.isMiss(i) {
			var ok bool
			if req, ok = walk.at(plan.freshIndex(i)); !ok {
				return opResult{err: errors.New("fresh-key space exhausted")}
			}
		} else {
			req = ans.pick(plan, i)
		}
		id := tr.begin("client.PostSim", i, -1)
		env, err := postSim(hc, c.nodes[0].url, req)
		tr.end(id)
		if err != nil {
			return opResult{err: err}
		}
		if !ans.record(req, env.Result) {
			failMu.Lock()
			rep.fail("op %d: response for %s differs from an earlier response for the same key", i, keyOf(req))
			failMu.Unlock()
		}
		r := opResult{cached: env.Cached}
		if !env.Cached {
			var res struct {
				Retired uint64 `json:"retired_uops"`
			}
			if err := json.Unmarshal(env.Result, &res); err != nil {
				return opResult{err: err}
			}
			r.uops = res.Retired
		}
		return r
	}

	untracedD, tracedD := phaseTimes(o)
	opsA, regA := closedLoop(maxLoad(), untracedD, false, func(i int) opResult { return op(nil, i) })
	rep.attempted += len(opsA)
	if len(opsA) == 0 {
		return errNoOps
	}
	for _, r := range opsA {
		if r.err != nil {
			rep.fail("op %d: %v", r.index, r.err)
		}
	}
	rateA := okRate(opsA, regA.wall)

	if !o.trace {
		rep.set("setup_s", setup, "s", 1, "CPU time of cluster start, registration and one warm-up request per benchmark")
		rep.set("uops_per_s", uopRate(opsA, regA.wall), "uop/s", len(opsA), "µops the cluster simulated for cache misses")
		rep.set("req_per_s", rateA, "1/s", len(opsA), fmt.Sprintf("successful requests, closed loop of %d clients", maxLoad()))
		if err := reportLatency(rep, opsA, "client round trip"); err != nil {
			return err
		}
	} else {
		tr := newTracer()
		prof, err := startProfile(outPath(o, "cpu.pb.gz"))
		if err != nil {
			return err
		}
		// The traced phase continues the op sequence where the untraced
		// one stopped, so its misses are still fresh keys.
		offset := opsA[len(opsA)-1].index + 1
		before, err := c.scrape(hc)
		if err != nil {
			return err
		}
		opsB, regB := closedLoop(maxLoad(), tracedD, false, func(i int) opResult { return op(tr, offset+i) })
		after, err := c.scrape(hc)
		if err != nil {
			return err
		}
		if err := prof.stop(); err != nil {
			return err
		}
		rep.attempted += len(opsB)
		if len(opsB) == 0 {
			return errNoOps
		}
		for _, r := range opsB {
			if r.err != nil {
				rep.fail("op %d: %v", offset+r.index, r.err)
			}
		}
		reportOverhead(rep, rateA, okRate(opsB, regB.wall), len(opsB), "req_per_s")
		if err := tr.write(outPath(o, "spans.json")); err != nil {
			return err
		}
		if err := serviceLayers(rep, opsB, before, after); err != nil {
			return err
		}
		if err := reportCPU(rep, prof); err != nil {
			return err
		}
	}

	// After the measured region: every distinct key's answer must match a
	// direct simulation of the request as the server resolves it.
	checked, err := checkAnswers(rep, o.trace, ans)
	if err != nil {
		return err
	}
	fmt.Fprintf(rep.w, "  answers: %d distinct keys checked against direct sim.Run\n", checked)
	if !o.trace {
		return reportModelCheck(rep, sweepBenchmarks, mixOps)
	}
	return nil
}

func okRate(ops []opResult, wall time.Duration) float64 {
	n := 0
	for _, r := range ops {
		if r.err == nil {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// simResult is the slice of api.SimResult the answer check compares.
type simResult struct {
	Benchmark      string `json:"benchmark"`
	Config         string `json:"config"`
	Ops            int    `json:"ops"`
	RetiredUops    uint64 `json:"retired_uops"`
	Cycles         int64  `json:"cycles"`
	MeasuredUops   uint64 `json:"measured_uops"`
	MeasuredCycles int64  `json:"measured_cycles"`
	L1Hits         uint64 `json:"l1_hits"`
	L1Misses       uint64 `json:"l1_misses"`
	L2Hits         uint64 `json:"l2_hits"`
	L2Misses       uint64 `json:"l2_misses"`
	TLBHits        uint64 `json:"tlb_hits"`
	TLBMisses      uint64 `json:"tlb_misses"`
	Prefetch       map[string]struct {
		Issued        uint64 `json:"issued"`
		FullHits      uint64 `json:"full_hits"`
		PartialHits   uint64 `json:"partial_hits"`
		EvictedUnused uint64 `json:"evicted_unused"`
	} `json:"prefetch"`
}

// matches compares a served result with a direct run of the same request.
func (s simResult) matches(spec workloads.Spec, ops int, r *sim.Result) bool {
	c := r.Counters
	if s.Benchmark != spec.Name || s.Config != r.Config.Name || s.Ops != ops ||
		s.RetiredUops != r.Core.Retired || s.Cycles != r.Core.Cycles ||
		s.MeasuredUops != r.MeasuredUops || s.MeasuredCycles != r.MeasuredCycles ||
		s.L1Hits != c.L1Hits || s.L1Misses != c.L1Misses || s.L2Hits != c.L2Hits || s.L2Misses != c.L2Misses ||
		s.TLBHits != r.TLBHits || s.TLBMisses != r.TLBMisses {
		return false
	}
	srcs := map[string]cache.Source{"stride": cache.SrcStride, "content": cache.SrcContent, "markov": cache.SrcMarkov}
	for name, src := range srcs {
		p, ok := s.Prefetch[name]
		if ok != (c.PrefIssued[src] > 0) {
			return false
		}
		if ok && (p.Issued != c.PrefIssued[src] || p.FullHits != c.FullHits[src] ||
			p.PartialHits != c.PartialHits[src] || p.EvictedUnused != c.PrefEvictedUnused[src]) {
			return false
		}
	}
	return true
}

// checkAnswers re-simulates every distinct key directly and counts each
// mismatch as a failed op. In a traced run it also reports the simulator
// layers over these runs: they are the simulations the cluster served.
func checkAnswers(rep *report, traced bool, ans *answers) (int, error) {
	keys := append([]string(nil), ans.order...)
	sort.Strings(keys)
	results := make([]*sim.Result, len(keys))
	errs := make([]error, len(keys))
	bad := make([]bool, len(keys))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	before := readMem()
	parallel(len(keys), func(i int) {
		spec, cfg, ops, err := api.ResolveSim(ans.reqs[keys[i]])
		if err != nil {
			errs[i] = err
			return
		}
		res := runSim(tr, i, -1, workloads.Checkpoint(spec, ops), cfg)
		results[i] = res
		var got simResult
		if err := json.Unmarshal(ans.first[keys[i]], &got); err != nil || !got.matches(spec, ops, res) {
			bad[i] = true
		}
	})
	alloc := readMem().since(before)
	for i, k := range keys {
		if errs[i] != nil {
			return 0, fmt.Errorf("resolving %s: %w", k, errs[i])
		}
		if bad[i] {
			rep.fail("key %s: served result differs from a direct sim.Run", k)
		}
	}
	if traced {
		runs := tr.named("sim.Run")
		rep.set("sim.run_ms", median(runs), "ms", len(runs), "median direct sim.Run of the served keys, after the region")
		rep.set("workloads.gen_ms", 0, "ms", 0, "no generation: checkpoints are memoised in set-up")
		rep.set("workloads.gen_share", 0, "ratio", 0, "no generation in the measured region")
		simLayers(rep, results, alloc)
	}
	return len(keys), nil
}

// serviceLayers reports the cdpd layers from the /metrics scrapes around
// the traced phase (coordinator first, then workers) and client spans.
func serviceLayers(rep *report, ops []opResult, before, after []promSample) error {
	workersB, workersA := before[1:], after[1:]
	hits := counterDelta(workersB, workersA, "cdpd_cache_hits_total")
	misses := counterDelta(workersB, workersA, "cdpd_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.set("simcache.hit_ratio", ratio, "ratio", int(hits+misses), "worker cache hits / lookups")

	hist := func(name string) (api.HistogramSnapshot, error) { return histogramDelta(workersB, workersA, name) }
	lookup, err := hist("cdpd_cache_lookup_seconds")
	if err != nil {
		return err
	}
	wait, err := hist("cdpd_queue_wait_seconds")
	if err != nil {
		return err
	}
	runDur, err := hist("cdpd_run_duration_seconds")
	if err != nil {
		return err
	}
	quant := func(name string, h api.HistogramSnapshot, q float64, what string) {
		v := h.Quantile(q)
		lo, hi := bucketOf(h.Bounds, v)
		rep.set(name, v*1e3, "ms", int(h.Count), fmt.Sprintf("%s, interpolated in bucket (%g, %g] ms", what, lo*1e3, hi*1e3))
	}
	quant("simcache.lookup_p50_ms", lookup, 0.5, "cache probe on the submit path")
	quant("jobq.wait_p50_ms", wait, 0.5, "queue wait")
	quant("jobq.wait_p99_ms", wait, 0.99, "queue wait")
	quant("jobq.run_p50_ms", runDur, 0.5, "simulation job, checkpoint lookup included")
	rep.set("jobq.shed", counterDelta(before, after, "cdpd_shed_total"), "count", len(ops), "low-priority submissions shed")

	coordB, coordA := before[:1], after[:1]
	rep.set("cluster.steals", counterDelta(coordB, coordA, "cdpd_cluster_steals_total"), "count", len(ops), "jobs re-routed from dead workers")
	rep.set("cluster.hedges", counterDelta(coordB, coordA, "cdpd_cluster_hedges_total"), "count", len(ops), "second placements raced")
	rep.set("cluster.hedge_wins", counterDelta(coordB, coordA, "cdpd_cluster_hedge_wins_total"), "count", len(ops), "hedges that finished first")

	var hitMs, missMs []float64
	var rttSum float64
	for _, r := range ops {
		if r.err != nil {
			continue
		}
		rttSum += r.ms
		if r.cached {
			hitMs = append(hitMs, r.ms)
		} else {
			missMs = append(missMs, r.ms)
		}
	}
	ok := len(hitMs) + len(missMs)
	if ok == 0 {
		return errNoOps
	}
	server := (wait.SumSecs + runDur.SumSecs + lookup.SumSecs) * 1e3 / float64(ok)
	rep.set("cluster.unattributed_ms", rttSum/float64(ok)-server, "ms", ok,
		fmt.Sprintf("mean client round trip %.3f ms minus worker mean queue wait + run + cache lookup %.3f ms", rttSum/float64(ok), server))
	rep.set("client.rtt_hit_p50_ms", median(hitMs), "ms", len(hitMs), "round trips answered from cache")
	rep.set("client.rtt_miss_p50_ms", median(missMs), "ms", len(missMs), "round trips that simulated")
	return nil
}

// serviceMetrics are the per-layer metrics only cdpd-mix loads.
var serviceMetrics = []struct{ name, unit string }{
	{"simcache.hit_ratio", "ratio"}, {"simcache.lookup_p50_ms", "ms"},
	{"jobq.wait_p50_ms", "ms"}, {"jobq.wait_p99_ms", "ms"}, {"jobq.run_p50_ms", "ms"}, {"jobq.shed", "count"},
	{"cluster.steals", "count"}, {"cluster.hedges", "count"}, {"cluster.hedge_wins", "count"}, {"cluster.unattributed_ms", "ms"},
	{"client.rtt_hit_p50_ms", "ms"}, {"client.rtt_miss_p50_ms", "ms"},
}

// reportIdleService prints the service-layer metrics on the simulation
// workloads, which never reach cdpd: every traced run prints every
// per-layer metric.
func reportIdleService(rep *report) {
	for _, m := range serviceMetrics {
		rep.set(m.name, 0, m.unit, 0, "not loaded by this workload")
	}
}
