// Package api exposes the simulator as an HTTP service (cmd/cdpd). Three
// layers cooperate: handlers validate and shape requests, internal/jobq
// bounds and schedules the work, and internal/simcache deduplicates it —
// an identical (benchmark, config, ops) request is served from cache, and
// concurrent identical submissions collapse into one simulation.
//
// Every simulation is a Cell: a POST /v1/sim request resolved with the
// server's defaults (ResolveCell) and run on one path (simulate). An arena
// is a plan of such cells, computed through a CellFunc by the experiments'
// cell executor and reduced to a leaderboard. The standalone daemon
// computes its cells locally; the cluster coordinator serves the same
// ArenaHandler with a CellFunc that routes each cell to a worker.
//
// Endpoints:
//
//	POST   /v1/sim               submit a simulation (?wait=1 blocks for the result)
//	GET    /v1/jobs/{id}         poll a job
//	GET    /v1/jobs/{id}/stream  NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/experiments/{id}  run a registered experiment as a job
//	GET    /v1/arena             sweep every prefetcher engine over a benchmark set
//	GET    /v1/engines           list the registered prefetcher zoo
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining or overloaded)
//	GET    /metrics              Prometheus-style text metrics
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/simtrace"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// traceRingCap bounds the event ring of a traced job; overflow drops
	// the oldest events and is recorded in the exported trace metadata.
	traceRingCap = 1 << 18
	// maxStoredTraces bounds how many finished traces the daemon retains.
	maxStoredTraces = 16
)

// ResultCache is the slice of the result cache the handlers use. Both the
// plain in-memory simcache.Cache and the cluster's simcache.TieredCache
// (mem → disk spill → peer fetch) satisfy it, which is how a worker joins
// the shared content-addressed tier without the handlers changing: the
// tiered cache's GetOrCompute probes the colder tiers before compute runs.
type ResultCache interface {
	Get(k simcache.Key) ([]byte, bool)
	GetOrCompute(k simcache.Key, compute func() ([]byte, error)) ([]byte, bool, error)
	Stats() simcache.Stats
}

// Server wires the handlers to a queue and a cache. Construct with New or
// NewWithOptions.
type Server struct {
	queue    *jobq.Queue
	cache    ResultCache
	mux      *http.ServeMux
	draining atomic.Bool
	opts     Options
	store    *ckptStore // nil unless Options.CheckpointDir is set
	counters

	logger *slog.Logger
	traces *traceStore

	// Request-path latency histograms exported by /metrics.
	queueWait   *histogram // submit accepted -> job function starts
	runDur      *histogram // one simulation, checkpoint generation included
	cacheLookup *histogram // result-cache probe on the submit path

	started   time.Time
	startSims uint64
}

// New builds a server around an already-running queue and cache with the
// default (zero) resilience options.
func New(q *jobq.Queue, c ResultCache) *Server {
	s, err := NewWithOptions(q, c, Options{})
	if err != nil {
		// Only the checkpoint store can fail, and Options{} has none.
		panic(err)
	}
	return s
}

// NewWithOptions builds a server with an explicit resilience
// configuration. It fails only when the checkpoint directory cannot be
// created.
func NewWithOptions(q *jobq.Queue, c ResultCache, opts Options) (*Server, error) {
	s := &Server{
		queue:       q,
		cache:       c,
		mux:         http.NewServeMux(),
		opts:        opts,
		logger:      opts.Logger,
		traces:      newTraceStore(maxStoredTraces),
		queueWait:   newHistogram(latencyBuckets),
		runDur:      newHistogram(latencyBuckets),
		cacheLookup: newHistogram(latencyBuckets),
		started:     time.Now(),
		startSims:   sim.Runs(),
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if opts.CheckpointDir != "" {
		store, err := newCkptStore(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.mux.HandleFunc("POST /v1/sim", s.handleSubmitSim)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/arena", s.ArenaHandler(s.computeCell, 1))
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips readiness; a draining server answers /readyz with 503
// so load balancers stop routing to it while in-flight jobs finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// jobPayload is what sim/experiment jobs store as their jobq value.
type jobPayload struct {
	data   []byte
	cached bool // true when served from a resident simcache entry
}

// JobResult packs a terminal job value in the shape the job handlers
// (GET /v1/jobs/{id} and friends) decode. The cluster coordinator stores a
// remote worker's answer through this, so a proxied job is
// indistinguishable from a local one to every polling and streaming
// client.
func JobResult(data []byte, cached bool) any { return jobPayload{data: data, cached: cached} }

// ErrUnavailable marks a job that failed because nothing could run it at
// the time, such as a cluster coordinator with no live workers. RespondJob
// answers such a failure with 503, so clients retry instead of giving up.
var ErrUnavailable = errors.New("service unavailable")

// envelope is the terminal response shape for results.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// WriteJSON writes v as the JSON response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the {"error": ...} body every endpoint fails with.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBackpressure maps ErrQueueFull to 429 with a Retry-After estimate
// proportional to the backlog (one second per queued job, clamped to
// [1s, 30s]) and ErrShuttingDown to 503.
func (s *Server) writeBackpressure(w http.ResponseWriter, err error) {
	if errors.Is(err, jobq.ErrShuttingDown) {
		WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	retry := s.queue.Stats().Depth
	if retry < 1 {
		retry = 1
	}
	if retry > 30 {
		retry = 30
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	WriteError(w, http.StatusTooManyRequests, "queue full, retry in ~%ds", retry)
}

// handleSubmitSim is POST /v1/sim: validate, consult the cache, and only
// then spend a queue slot.
func (s *Server) handleSubmitSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	c, err := s.ResolveCell(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lookupStart := time.Now()
	data, hit := s.cache.Get(c.Key)
	s.cacheLookup.Observe(time.Since(lookupStart))
	if hit {
		s.logger.Info("sim served from cache",
			"content_key", c.Key.String(), "benchmark", req.Benchmark)
		injectRespondFaults(w, r)
		WriteJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	if s.shedLowPriority(req.Priority) {
		s.writeShed(w)
		return
	}

	id := c.ID()
	resume := s.resumePoint(c)
	traced := req.Trace && resume == nil
	job, err := s.queue.SubmitTimeout(id, req.Priority, s.adaptiveTimeout(c.Ops),
		s.simJob(c, resume, time.Now(), traced))
	if errors.Is(err, jobq.ErrDuplicateID) {
		// The same request is already queued or running; attach to it
		// instead of spending another slot.
		if j, ok := s.queue.Get(id); ok {
			s.RespondJob(w, r, req.Wait, j)
			return
		}
	}
	if err != nil {
		s.writeBackpressure(w, err)
		return
	}
	if s.store != nil {
		// Persist the defaulted request so a restarted daemon can rebuild
		// this exact job (same content key, same ID) and resume it.
		if err := s.store.saveRequest(id, c.Req); err != nil {
			s.ckptWriteErrs.Add(1)
		}
	}
	s.RespondJob(w, r, req.Wait, job)
}

// resumePoint returns the boundary snapshot persisted under c's job ID —
// by a previous process, or by a dead cluster peer when the checkpoint dir
// is shared — so a segmented run picks up from its last boundary instead
// of µop zero. This is the work-stealing resume path: the coordinator
// resubmits a stolen job to a new worker, and the new worker finds the
// victim's snapshot here. Nil when there is nothing to resume.
func (s *Server) resumePoint(c Cell) *sim.Snapshot {
	if s.store == nil || c.Cfg.CheckpointEveryOps <= 0 {
		return nil
	}
	snap := s.store.loadSnapshot(c.ID())
	if snap != nil {
		s.resumedJobs.Add(1)
	}
	return snap
}

// simJob builds the job function for one simulation request. The cache
// fill happens inside the job so the queue, not the HTTP handler, pays for
// the simulation, and GetOrCompute collapses concurrent identical keys
// into one run. resume picks the run up from a snapshot instead of µop
// zero.
//
// submitted is when the request was accepted; the gap to the job function
// starting is the queue wait. traced is honoured only when this job
// actually computes: a cache hit or collapsed computation runs no
// simulation, so there is nothing to trace.
func (s *Server) simJob(c Cell, resume *sim.Snapshot, submitted time.Time, traced bool) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		wait := time.Since(submitted)
		s.queueWait.Observe(wait)
		s.cellLogger(c).Info("job started", "queue_wait", wait, "ops", c.Ops, "traced", traced)
		data, hit, err := s.cache.GetOrCompute(c.Key, func() ([]byte, error) {
			return s.simulate(ctx, c, resume, traced, j.SetProgress)
		})
		if err != nil {
			return nil, err
		}
		if s.store != nil {
			s.store.remove(c.ID())
		}
		j.SetProgress("finished", 2, 2)
		return jobPayload{data: data, cached: hit}, nil
	}
}

// cellLogger scopes request logs to one simulation.
func (s *Server) cellLogger(c Cell) *slog.Logger {
	return s.logger.With("job_id", c.ID(), "content_key", c.Key.String(), "benchmark", c.Spec.Name)
}

// noProgress discards the stage reports of a simulation that is one cell
// of a larger job, which reports its own progress.
func noProgress(string, int, int) {}

// simulate is the run path of every simulation this server computes, a
// POST /v1/sim job or an arena cell: generate the trace checkpoint, run it
// (runSim), time the run into cdpd_run_duration_seconds and the adaptive
// deadline's rate, and render the cacheable result. progress receives the
// stage. With traced set, the run carries a simtrace ring and the rendered
// Chrome trace is retained for GET /v1/jobs/{id}/trace.
func (s *Server) simulate(ctx context.Context, c Cell, resume *sim.Snapshot, traced bool,
	progress func(stage string, done, total int)) ([]byte, error) {
	log := s.cellLogger(c)
	progress("generating checkpoint", 0, 2)
	ck := workloads.Checkpoint(c.Spec, c.Ops)
	progress("simulating", 1, 2)
	var tr *simtrace.Tracer
	if traced {
		tr = simtrace.New(traceRingCap)
	}
	start := time.Now()
	res, err := s.runSim(ctx, c, ck, resume, tr, progress)
	dur := time.Since(start)
	if err != nil {
		log.Warn("simulation failed", "sim_duration", dur, "error", err)
		return nil, err
	}
	s.runDur.Observe(dur)
	s.observeSimRate(dur, c.Ops)
	log.Info("simulation finished", "sim_duration", dur,
		"cycles", res.Core.Cycles, "ipc", res.IPC())
	if tr != nil {
		s.storeTrace(c.ID(), tr, log)
	}
	return renderResult(c.Spec.Name, c.Ops, res)
}

// storeTrace renders the ring as Chrome trace_event JSON and retains it
// for the trace endpoint. Rendering failures only cost the trace, never
// the job.
func (s *Server) storeTrace(id string, tr *simtrace.Tracer, log *slog.Logger) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		log.Warn("trace render failed", "error", err)
		return
	}
	s.traces.put(id, buf.Bytes())
	log.Info("trace captured", "events", tr.Len(), "dropped", tr.Dropped(), "bytes", buf.Len())
}

// runSim executes one simulation, segmented when the configuration asks
// for checkpoints. Boundary snapshots are persisted best-effort: a failed
// write (disk full, injected ckpt.write.error) costs one boundary of
// resume granularity, never the run. Cancellation is observed at
// boundaries for segmented runs and continuously for plain ones. A non-nil
// tracer records the run's event stream; resumed runs are never traced
// (the ring would only cover the tail segment).
func (s *Server) runSim(ctx context.Context, c Cell, ck *trace.Checkpoint, resume *sim.Snapshot, tr *simtrace.Tracer,
	progress func(stage string, done, total int)) (*sim.Result, error) {
	every := c.Cfg.CheckpointEveryOps
	if every <= 0 {
		return sim.RunTracedContext(ctx, ck, c.Cfg, tr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sink := func(snap *sim.Snapshot) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		progress("simulating", 1+snap.OpsFetched/every, 0)
		if s.store != nil {
			if err := s.store.saveSnapshot(c.ID(), snap); err != nil {
				s.ckptWriteErrs.Add(1)
			} else {
				s.ckptWrites.Add(1)
			}
		}
		return nil
	}
	if resume != nil {
		return sim.Resume(ck, c.Cfg, resume, sink)
	}
	return sim.RunCheckpointedTraced(ck, c.Cfg, tr, sink)
}

// RespondJob either acknowledges the job (202) or, when wait is requested
// (the argument or ?wait=1), blocks until it is terminal and returns its
// result. The cluster coordinator answers its routed jobs through it too.
func (s *Server) RespondJob(w http.ResponseWriter, r *http.Request, wait bool, job *jobq.Job) {
	if !wait && r.URL.Query().Get("wait") != "1" {
		WriteJSON(w, http.StatusAccepted, map[string]string{
			"job_id": job.ID(),
			"status": "/v1/jobs/" + job.ID(),
			"stream": "/v1/jobs/" + job.ID() + "/stream",
		})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gave up; the job keeps running for the next caller.
		return
	}
	v, err := job.Result()
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, jobq.ErrCanceled):
			code = http.StatusConflict
		case errors.Is(err, ErrUnavailable):
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, "%v", err)
		return
	}
	p := v.(jobPayload)
	injectRespondFaults(w, r)
	WriteJSON(w, http.StatusOK, envelope{Cached: p.cached, Result: p.data})
}

// jobView is the GET /v1/jobs/{id} response.
type jobView struct {
	JobID  string          `json:"job_id"`
	State  jobq.State      `json:"state"`
	Stage  string          `json:"stage,omitempty"`
	Done   int             `json:"done,omitempty"`
	Total  int             `json:"total,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached *bool           `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	u := job.Snapshot()
	view := jobView{JobID: u.JobID, State: u.State, Stage: u.Stage, Done: u.Done, Total: u.Total, Error: u.Error}
	if u.State == jobq.StateDone {
		if v, err := job.Result(); err == nil {
			if p, ok := v.(jobPayload); ok {
				view.Result = p.data
				view.Cached = &p.cached
			}
		}
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleJobStream is GET /v1/jobs/{id}/stream: one JSON object per line
// (NDJSON), flushed as progress arrives, ending with the terminal state.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	updates, cancel := job.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case u, ok := <-updates:
			if !ok {
				// Channel closed on the terminal update; emit the final
				// snapshot so late subscribers always see the end state.
				_ = enc.Encode(job.Snapshot())
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			if err := enc.Encode(u); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			// Fault point: the connection dies mid-stream. Clients must
			// resubscribe (the terminal snapshot is always replayed) rather
			// than trust an unterminated stream.
			if faultinject.Should("api.stream.drop") {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the Chrome trace_event JSON
// captured for a traced job, loadable in Perfetto. 404s explain the two
// non-error absences — the job is unknown, or it never ran a traced
// simulation (trace not requested, result served from cache, or the trace
// was evicted by newer ones).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.traces.get(id)
	if !ok {
		if _, known := s.queue.Get(id); !known {
			WriteError(w, http.StatusNotFound, "no such job %q", id)
			return
		}
		WriteError(w, http.StatusNotFound,
			"no trace for job %q: submit with \"trace\":true and note that cached or collapsed results run no simulation", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !s.queue.Cancel(id) {
		WriteError(w, http.StatusConflict, "job %q already finished", id)
		return
	}
	if s.store != nil {
		// A canceled job must not resurrect on the next restart.
		s.store.remove(id)
	}
	WriteJSON(w, http.StatusOK, map[string]string{"job_id": id, "state": "canceling"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Ready reports whether this server should receive new traffic, and a
// short status word when it should not ("draining", "overloaded"). The
// cluster worker reuses it to compose its own /readyz annotations (a
// partition-orphaned worker is ready-but-degraded, which only the wrapper
// knows).
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() || !s.queue.Stats().Accepting {
		return false, "draining"
	}
	if s.overloaded() {
		// Still alive and still finishing queued work, but new traffic
		// should go elsewhere until the backlog falls below the watermark.
		return false, "overloaded"
	}
	return true, "ready"
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ok, status := s.Ready()
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, status)
}
