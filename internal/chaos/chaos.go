// Package chaos is a deterministic fault-schedule orchestrator for the cdpd
// cluster. A scenario composes faultinject plans and lifecycle events (kill
// the coordinator mid-arena, partition a worker mid-job, tear disk spills,
// expire leases under load) against a real in-process cluster, then checks
// the survivability invariants the design promises:
//
//   - exactly-once: sim.Runs() deltas match the work submitted (allowing
//     only the documented partition double-run window),
//   - byte-identity: every result equals an uninterrupted standalone run,
//   - a closed ledger: the replayed journal holds no open placements and
//     no double-completions,
//   - no leaked goroutines once the cluster is torn down.
//
// Runs are deterministic per (scenario, seed): fault plans derive from the
// seed, victims are chosen by hashing it, and no ambient randomness is
// consulted. CI sweeps the scenario × seed matrix; on failure the
// coordinator journal is preserved as the artifact that explains what the
// ledger thought was true.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// Options configure one chaos run.
type Options struct {
	// Seed drives every nondeterministic-looking choice: faultinject plans,
	// victim selection, op counts. Same seed, same schedule.
	Seed int64
	// ArtifactDir receives the coordinator journal when the run fails
	// ("" = $CHAOS_ARTIFACT_DIR, or nothing).
	ArtifactDir string
	// Log receives narration ("" events are fine to drop; nil discards).
	Log func(format string, args ...any)
}

// Scenario is one named fault schedule.
type Scenario struct {
	Name        string
	Description string
	Run         func(*Run)
}

// Report is the outcome of executing a scenario.
type Report struct {
	Scenario   string
	Seed       int64
	Violations []string
	// JournalPath points at the preserved journal artifact ("" if the run
	// passed or the scenario used no state dir).
	JournalPath string
}

// Err folds the violations into one error (nil = the run held every
// invariant).
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	errs := make([]error, 0, len(r.Violations))
	for _, v := range r.Violations {
		errs = append(errs, errors.New(v))
	}
	return errors.Join(errs...)
}

// Run is the live harness a scenario drives: an in-process cluster whose
// coordinator address survives coordinator restarts (the listener stays up
// across swap, the way a fixed host:port does) and whose workers sit behind
// a front door the scenario can partition.
type Run struct {
	opts       Options
	violations []string

	baseDir  string
	stateDir string
	ckptDir  string
	cacheDir string

	coordTS   *httptest.Server
	coordCur  atomic.Value // *cluster.Coordinator (typed nil when dead)
	coord     *cluster.Coordinator
	coordOpts cluster.CoordinatorOptions

	workers map[string]*workerNode

	startGoroutines int
}

// workerNode is one worker plus its partitionable front door.
type workerNode struct {
	name        string
	w           *cluster.Worker
	ts          *httptest.Server
	handler     atomic.Value // http.Handler
	partitioned atomic.Bool
	killed      bool
}

// Execute runs one scenario under the given options and audits the
// invariants every scenario shares: journal ledger closed, goroutines
// reclaimed. Scenario-specific checks accumulate through Run.Check.
func Execute(sc Scenario, opts Options) *Report {
	if opts.ArtifactDir == "" {
		opts.ArtifactDir = os.Getenv("CHAOS_ARTIFACT_DIR")
	}
	rep := &Report{Scenario: sc.Name, Seed: opts.Seed}
	base, err := os.MkdirTemp("", "chaos-"+sc.Name+"-")
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("harness: temp dir: %v", err))
		return rep
	}

	r := &Run{
		opts:     opts,
		baseDir:  base,
		stateDir: filepath.Join(base, "state"),
		ckptDir:  filepath.Join(base, "ckpt"),
		cacheDir: filepath.Join(base, "cache"),
		workers:  map[string]*workerNode{},
	}
	for _, d := range []string{r.stateDir, r.ckptDir, r.cacheDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("harness: %v", err))
			return rep
		}
	}
	r.startGoroutines = runtime.NumGoroutine()

	func() {
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 16<<10)
				r.violations = append(r.violations,
					fmt.Sprintf("scenario panicked: %v\n%s", p, buf[:runtime.Stack(buf, false)]))
			}
		}()
		sc.Run(r)
	}()

	r.teardown()
	r.checkJournalClosed()
	r.checkGoroutines()

	rep.Violations = r.violations
	if len(rep.Violations) > 0 {
		rep.JournalPath = r.preserveJournal(sc.Name)
	} else {
		os.RemoveAll(base)
	}
	return rep
}

// Scenarios returns the registry in a stable order, matching the names the
// CI matrix sweeps.
func Scenarios() []Scenario {
	return []Scenario{
		KillCoordinatorMidArena,
		PartitionWorkerMidJob,
		CorruptCacheTier,
		LeaseExpiryUnderLoad,
	}
}

// ByName looks up a registered scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Logf narrates progress.
func (r *Run) Logf(format string, args ...any) {
	if r.opts.Log != nil {
		r.opts.Log(format, args...)
	}
}

// Check records a violation when cond is false. Scenarios keep going after
// a failed check — later invariants often explain earlier ones.
func (r *Run) Check(cond bool, format string, args ...any) {
	if !cond {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// Failf records a violation unconditionally.
func (r *Run) Failf(format string, args ...any) { r.Check(false, format, args...) }

// Seed exposes the run's seed for scenario-local derivations.
func (r *Run) Seed() int64 { return r.opts.Seed }

// pick deterministically selects an index in [0, n) from the seed and a
// salt, so "which worker is the victim" varies across seeds but never
// across reruns of one.
func (r *Run) pick(salt string, n int) int {
	h := uint64(r.opts.Seed) * 0x9e3779b97f4a7c15
	for _, b := range []byte(salt) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= h >> 33
	return int(h % uint64(n))
}

// ---- cluster lifecycle ----------------------------------------------------

// StartCoordinator boots the coordinator behind the durable address. mutate
// (optional) adjusts the options before boot; the same options are reused
// by RestartCoordinator.
func (r *Run) StartCoordinator(mutate func(*cluster.CoordinatorOptions)) {
	if r.coordTS == nil {
		r.coordCur.Store((*cluster.Coordinator)(nil))
		r.coordTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if c, _ := r.coordCur.Load().(*cluster.Coordinator); c != nil {
				c.ServeHTTP(w, req)
				return
			}
			panic(http.ErrAbortHandler) // dead process: abort the connection
		}))
	}
	opts := cluster.CoordinatorOptions{
		LeaseTTL:           60 * time.Second,
		StateDir:           r.stateDir,
		CheckpointEveryOps: 50_000,
	}
	if mutate != nil {
		mutate(&opts)
	}
	r.coordOpts = opts
	c, err := cluster.NewCoordinator(opts)
	if err != nil {
		panic(fmt.Sprintf("NewCoordinator: %v", err))
	}
	r.coord = c
	r.coordCur.Store(c)
}

// KillCoordinator is the SIGKILL stand-in: the journal stops first (a dead
// process appends nothing), in-flight forwards die, and the address starts
// aborting connections.
func (r *Run) KillCoordinator() {
	r.coordCur.Store((*cluster.Coordinator)(nil))
	if r.coord != nil {
		r.coord.Kill()
		r.coord = nil
	}
	r.Logf("coordinator killed")
}

// RestartCoordinator boots a new incarnation over the same state dir and
// address.
func (r *Run) RestartCoordinator() {
	c, err := cluster.NewCoordinator(r.coordOpts)
	if err != nil {
		panic(fmt.Sprintf("restart coordinator: %v", err))
	}
	r.coord = c
	r.coordCur.Store(c)
	r.Logf("coordinator restarted over %s", r.coordOpts.StateDir)
}

// CoordinatorURL is the durable coordinator address.
func (r *Run) CoordinatorURL() string { return r.coordTS.URL }

// Coordinator exposes the live incarnation (nil while killed).
func (r *Run) Coordinator() *cluster.Coordinator { return r.coord }

// StartWorker boots a named worker that shares the run's checkpoint and
// spill directories (the shared tier is what makes steals and restarts
// cheap) behind a partitionable front door.
func (r *Run) StartWorker(name string) {
	node := &workerNode{name: name}
	node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if node.partitioned.Load() {
			panic(http.ErrAbortHandler)
		}
		if h, _ := node.handler.Load().(http.Handler); h != nil {
			h.ServeHTTP(w, req)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Name:     name,
		SelfURL:  node.ts.URL,
		JoinURL:  r.coordTS.URL,
		CacheDir: r.cacheDir,
		Queue:    jobq.Config{Workers: 2, Capacity: 32},
		API:      api.Options{CheckpointDir: r.ckptDir},
	})
	if err != nil {
		node.ts.Close()
		panic(fmt.Sprintf("NewWorker(%s): %v", name, err))
	}
	node.w = w
	node.handler.Store(http.Handler(w))
	w.Start()
	r.workers[name] = node
}

// WorkerURL is the worker's advertised address.
func (r *Run) WorkerURL(name string) string { return r.workers[name].ts.URL }

// Worker returns the named worker for in-process inspection (the bench
// suite reads its API server's latency histograms), or nil if the worker
// was never started or has been killed.
func (r *Run) Worker(name string) *cluster.Worker {
	node := r.workers[name]
	if node == nil || node.killed {
		return nil
	}
	return node.w
}

// WorkerNames returns the live (non-killed) workers in stable order.
func (r *Run) WorkerNames() []string {
	var names []string
	for name, node := range r.workers {
		if !node.killed {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// PartitionWorker makes the worker's inbound side unreachable — placements
// and peer fetches abort — while its own outbound traffic (heartbeats,
// local jobs) keeps flowing: the classic asymmetric partition.
func (r *Run) PartitionWorker(name string) {
	r.workers[name].partitioned.Store(true)
	r.Logf("worker %s partitioned (inbound aborted)", name)
}

// HealWorker ends the partition.
func (r *Run) HealWorker(name string) {
	r.workers[name].partitioned.Store(false)
	r.Logf("worker %s healed", name)
}

// KillWorker is the worker SIGKILL stand-in: loops stop without a leave,
// running jobs die uncounted, and the address goes dark.
func (r *Run) KillWorker(name string) {
	node := r.workers[name]
	if node.killed {
		return
	}
	node.killed = true
	// A SIGKILL drops every connection and stops every job at once. Abort
	// the front door first, so no reply from the worker's own teardown
	// reaches a client, then stop the jobs before the blocking Close.
	node.partitioned.Store(true)
	node.ts.CloseClientConnections()
	node.w.Kill()
	node.ts.Close()
	r.Logf("worker %s killed", name)
}

// WaitForWorkers polls the coordinator's member table until n workers hold
// live leases.
func (r *Run) WaitForWorkers(n int) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if r.liveWorkers() == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.Failf("coordinator never reached %d live workers (have %d)", n, r.liveWorkers())
}

func (r *Run) liveWorkers() int    { return r.coordGauge("cdpd_cluster_workers_live") }
func (r *Run) openPlacements() int { return r.coordGauge("cdpd_cluster_placements_open") }

// coordGauge scrapes one integer series off the coordinator's /metrics
// (-1 when unreachable or absent).
func (r *Run) coordGauge(series string) int {
	resp, err := http.Get(r.coordTS.URL + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range bytes.Split(body, []byte("\n")) {
		var v int
		if n, _ := fmt.Sscanf(string(line), series+" %d", &v); n == 1 {
			return v
		}
	}
	return -1
}

func (r *Run) teardown() {
	// Let in-flight placements settle before tearing the cluster down: a
	// graceful-or-not coordinator exit correctly leaves unfinished
	// placements open in the journal, and the ledger audit below asserts a
	// SETTLED cluster owes nothing.
	if r.coord != nil {
		deadline := time.Now().Add(30 * time.Second)
		for r.openPlacements() > 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := r.openPlacements(); n > 0 {
			r.Failf("%d placements still open at teardown after 30s", n)
		}
	}
	for _, node := range r.workers {
		if node.killed {
			continue
		}
		node.partitioned.Store(false)
		node.ts.Close()
		node.w.Kill()
	}
	if r.coord != nil {
		r.coord.Kill()
		r.coord = nil
	}
	if r.coordTS != nil {
		r.coordTS.Close()
	}
}

// ---- invariants ------------------------------------------------------------

// checkJournalClosed replays the settled journal: every accepted placement
// must have reached exactly one terminal record.
func (r *Run) checkJournalClosed() {
	if r.coordOpts.StateDir == "" {
		return
	}
	state, err := cluster.ReadJournal(r.coordOpts.StateDir)
	if err != nil {
		r.Failf("journal replay: %v", err)
		return
	}
	if len(state.Open) != 0 {
		var jobs []string
		for id := range state.Open {
			jobs = append(jobs, id)
		}
		sort.Strings(jobs)
		r.Failf("journal holds %d open placements after settle (lost jobs): %v", len(state.Open), jobs)
	}
	if state.DoubleCompletes != 0 {
		r.Failf("journal recorded %d double-completed placements", state.DoubleCompletes)
	}
}

// checkGoroutines polls until the goroutine count returns near its
// pre-scenario level — a stuck forward or heartbeat loop shows up
// here.
func (r *Run) checkGoroutines() {
	const slack = 12
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= r.startGoroutines+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			r.Failf("goroutine leak: %d live vs %d at start (+%d slack)\n%s",
				n, r.startGoroutines, slack, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// preserveJournal copies the journal into the artifact dir so a failed CI
// run ships the ledger that explains it.
func (r *Run) preserveJournal(scenario string) string {
	src := filepath.Join(r.stateDir, "coordinator.journal")
	raw, err := os.ReadFile(src)
	if err != nil {
		return ""
	}
	dir := r.opts.ArtifactDir
	if dir == "" {
		return src // keep the temp copy alive for local debugging
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return src
	}
	dst := filepath.Join(dir, fmt.Sprintf("%s-seed%d.journal", scenario, r.opts.Seed))
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return src
	}
	return dst
}

// ---- traffic helpers -------------------------------------------------------

type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

type jobView struct {
	State  jobq.State      `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// SubmitSim posts a waited simulation to the coordinator and returns the
// result bytes ("" error recorded as a violation → nil).
func (r *Run) SubmitSim(req api.SimRequest) []byte {
	body, _ := json.Marshal(req)
	resp, err := http.Post(r.coordTS.URL+"/v1/sim?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		r.Failf("POST /v1/sim: %v", err)
		return nil
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		r.Failf("POST /v1/sim: %d %s", resp.StatusCode, payload)
		return nil
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		r.Failf("bad envelope %s: %v", payload, err)
		return nil
	}
	return env.Result
}

// SubmitSimAsync posts without wait; the coordinator answers 202 and
// forwards in the background.
func (r *Run) SubmitSimAsync(req api.SimRequest) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(r.coordTS.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		r.Failf("async POST /v1/sim: %v", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		r.Failf("async POST /v1/sim: %d, want 202", resp.StatusCode)
	}
}

// SubmitArenaAsync submits an arena sweep and returns its job ID.
func (r *Run) SubmitArenaAsync(params string) string {
	resp, err := http.Get(r.coordTS.URL + "/v1/arena?" + params)
	if err != nil {
		r.Failf("arena submit: %v", err)
		return ""
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		r.Failf("arena submit: %d %s", resp.StatusCode, payload)
		return ""
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(payload, &sub); err != nil {
		r.Failf("arena submit body %s: %v", payload, err)
		return ""
	}
	return sub.JobID
}

// WaitJob polls the coordinator's job view until terminal, returning the
// result bytes (nil + violation on failure or timeout).
func (r *Run) WaitJob(jobID string, timeout time.Duration) []byte {
	deadline := time.Now().Add(timeout)
	var last jobView
	for {
		resp, err := http.Get(r.coordTS.URL + "/v1/jobs/" + jobID)
		if err == nil {
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && json.Unmarshal(payload, &last) == nil && last.State.Terminal() {
				if last.State != jobq.StateDone {
					r.Failf("job %s ended %s: %s", jobID, last.State, last.Error)
					return nil
				}
				return last.Result
			}
		}
		if time.Now().After(deadline) {
			r.Failf("job %s never finished (last state %q)", jobID, last.State)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WaitSnapshot blocks until the job's first boundary snapshot lands in the
// shared checkpoint dir.
func (r *Run) WaitSnapshot(jobID string) {
	path := filepath.Join(r.ckptDir, jobID+".snap")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			r.Failf("job %s never persisted a snapshot", jobID)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitOpenPlacements blocks until the coordinator's journal holds at least
// n open placements — the signal that a fan-out has journaled its cells.
func (r *Run) WaitOpenPlacements(n int) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, err := cluster.ReadJournal(r.stateDir)
		if err == nil && len(state.Open) >= n {
			return
		}
		if time.Now().After(deadline) {
			r.Failf("journal never held %d open placements (have %d, err %v)", n, len(state.Open), err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- standalone references -------------------------------------------------

// standaloneServer builds a single-process api.Server with the same
// checkpoint stamping as the cluster, so result bytes (which echo the
// resolved config) are comparable.
func (r *Run) standaloneServer() (*api.Server, func()) {
	queue := jobq.New(jobq.Config{Workers: 2, Capacity: 32})
	dir, _ := os.MkdirTemp(r.baseDir, "standalone-")
	s, err := api.NewWithOptions(queue, simcache.New(1<<24), api.Options{
		CheckpointDir:      dir,
		CheckpointEveryOps: r.coordOpts.CheckpointEveryOps,
	})
	if err != nil {
		panic(fmt.Sprintf("standalone server: %v", err))
	}
	return s, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queue.Shutdown(ctx)
	}
}

// StandaloneSim runs req on a fresh standalone daemon — the byte-identity
// reference.
func (r *Run) StandaloneSim(req api.SimRequest) []byte {
	s, done := r.standaloneServer()
	defer done()
	req.Wait = true
	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sim", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		r.Failf("standalone sim: %d %s", w.Code, w.Body)
		return nil
	}
	var env envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		r.Failf("standalone envelope: %v", err)
		return nil
	}
	return env.Result
}

// StandaloneArena runs an arena sweep on a fresh standalone daemon and
// returns the report bytes.
func (r *Run) StandaloneArena(params string, timeout time.Duration) []byte {
	s, done := r.standaloneServer()
	defer done()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/arena?"+params, nil))
	if w.Code != http.StatusAccepted {
		r.Failf("standalone arena submit: %d %s", w.Code, w.Body)
		return nil
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		r.Failf("standalone arena body: %v", err)
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+sub.JobID, nil))
		var view jobView
		if json.Unmarshal(w.Body.Bytes(), &view) == nil && view.State.Terminal() {
			if view.State != jobq.StateDone {
				r.Failf("standalone arena ended %s: %s", view.State, view.Error)
				return nil
			}
			return view.Result
		}
		if time.Now().After(deadline) {
			r.Failf("standalone arena never finished")
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// OwnedRequest searches the ops axis for a request owned by a specific
// member of the given ring, mirroring the coordinator's routing math so
// scenarios can steer placements deterministically.
func (r *Run) OwnedRequest(owner string, members []string, baseOps, ckptEvery int) (api.SimRequest, string) {
	if ckptEvery == 0 {
		// Mirror the coordinator's stamping: it writes its default interval
		// onto unset requests before keying, so ownership must be computed
		// against the stamped value.
		ckptEvery = r.coordOpts.CheckpointEveryOps
	}
	ring := cluster.NewRing(cluster.DefaultVirtualNodes)
	ring.SetMembers(members)
	for ops := baseOps; ops < baseOps+200_000; ops += 1000 {
		req := api.SimRequest{Benchmark: "quake", Ops: ops, CheckpointEveryOps: ckptEvery}
		spec, cfg, resolvedOps, err := api.ResolveSim(req)
		if err != nil {
			panic(err)
		}
		key := simcache.KeyFor(spec, cfg, resolvedOps)
		if name, _ := ring.Owner(key); name == owner {
			return req, api.SimJobID(key)
		}
	}
	r.Failf("no ops near %d produced a key owned by %s", baseOps, owner)
	return api.SimRequest{}, ""
}

// waitCacheFiles polls the shared spill dir until at least n entries with
// the given suffix exist ("" matches any spill artifact).
func (r *Run) waitCacheFiles(suffix string, n int) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		count := 0
		entries, _ := os.ReadDir(r.cacheDir)
		for _, e := range entries {
			if suffix == "" || filepath.Ext(e.Name()) == suffix {
				count++
			}
		}
		if count >= n {
			return
		}
		if time.Now().After(deadline) {
			r.Failf("spill dir never reached %d %q entries (have %d)", n, suffix, count)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// RegisterGhost hand-registers a member with a dead address — a worker that
// will never heartbeat, for lease-expiry pressure.
func (r *Run) RegisterGhost(name string) {
	body, _ := json.Marshal(map[string]string{"name": name, "url": "http://127.0.0.1:1"})
	resp, err := http.Post(r.coordTS.URL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		r.Failf("register ghost %s: %v", name, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.Failf("register ghost %s: %d", name, resp.StatusCode)
	}
}
