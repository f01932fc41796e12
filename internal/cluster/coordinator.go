package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/prefetch/registry"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

const (
	// DefaultLeaseTTL is how long a worker's registration survives without
	// a heartbeat. Workers heartbeat at a third of it, so one lost beat is
	// harmless and three in a row expire the lease.
	DefaultLeaseTTL = 3 * time.Second

	// maxRouteAttempts bounds how many distinct placements one job gets
	// before the coordinator gives up; each failed placement drops a dead
	// worker from the ring first, so the bound only bites when workers die
	// faster than they join.
	maxRouteAttempts = 8

	// maxPlacedEntries bounds the job→worker placement memory (used for
	// trace redirects). The map resets when full; a reset only costs trace
	// redirect accuracy for old jobs, never correctness.
	maxPlacedEntries = 4096

	// arenaFanout bounds concurrently in-flight cells during a distributed
	// arena sweep, so one sweep cannot flood a small fleet's queues into
	// backpressure.
	arenaFanout = 8
)

// errNoWorkers fails jobs routed while the ring is empty.
var errNoWorkers = errors.New("cluster: no live workers")

// joinRequest is the register/heartbeat/leave body a worker posts.
type joinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// memberInfo is the public shape of one ring member.
type memberInfo struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Inflight int    `json:"inflight,omitempty"`
}

// joinReply answers register and heartbeat: the lease the worker must keep
// renewing, plus the membership snapshot it syncs its ring replica from.
// Generation increments on every membership change, so a worker can skip
// rebuilding an identical ring.
type joinReply struct {
	TTLMillis  int64        `json:"ttl_ms"`
	Generation uint64       `json:"generation"`
	Members    []memberInfo `json:"members"`
}

// envelope mirrors the worker's terminal response shape.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// member is one registered worker. Fields are guarded by Coordinator.mu;
// they cannot carry a guardedby annotation because the mutex lives on the
// coordinator, not here (same convention as jobq's heap index).
type member struct {
	info     memberInfo
	expires  time.Time
	inflight int
}

// attempt is one in-flight placement of a job on a worker. Dropping the
// worker cancels the attempt's context, which unblocks the forward so it
// can steal the job back and re-route it.
type attempt struct {
	jobID  string
	worker string
	cancel context.CancelFunc
}

// CoordinatorOptions tunes a coordinator. The zero value works.
type CoordinatorOptions struct {
	// LeaseTTL is the heartbeat lease (0 = DefaultLeaseTTL). Tests shrink
	// it to make lease-lapse stealing fast.
	LeaseTTL time.Duration
	// CheckpointEveryOps is the default segmentation interval stamped onto
	// requests that do not choose their own — mirrored onto the forwarded
	// request explicitly, so every worker computes the same content key the
	// coordinator routed by.
	CheckpointEveryOps int
	// CacheBytes bounds the coordinator's local cache (assembled arena
	// reports; 0 = 64 MiB). Simulation results live on the workers.
	CacheBytes int64
	// Queue sizes the coordinator's local job pool (arena assembly jobs and
	// the external handles of proxied sims).
	Queue jobq.Config
	// StateDir persists the membership/placement write-ahead journal so a
	// restarted coordinator re-adopts its generation, re-leases surviving
	// workers, and re-routes orphaned placements ("" = memory only; a
	// restart forgets the cluster and workers must re-register from
	// scratch).
	StateDir string
	// Logger receives cluster lifecycle logs. Nil discards.
	Logger *slog.Logger
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (o CoordinatorOptions) cacheBytes() int64 {
	if o.CacheBytes > 0 {
		return o.CacheBytes
	}
	return 64 << 20
}

// Coordinator owns cluster membership and routes content-keyed jobs to
// their ring owners. It embeds a full api.Server — job polling, streaming,
// cancellation, metrics and health all behave exactly as on a standalone
// daemon — and overrides the submit paths with routed versions.
type Coordinator struct {
	opts   CoordinatorOptions
	queue  *jobq.Queue
	cache  *simcache.Cache
	api    *api.Server
	mux    *http.ServeMux
	httpc  *http.Client
	logger *slog.Logger

	// rootCtx is the coordinator's lifecycle: forwards and the lease
	// sweeper run under it; Close cancels it.
	rootCtx    context.Context
	rootCancel context.CancelFunc
	sweeperWG  sync.WaitGroup

	// journal is the write-ahead membership/placement log (nil without
	// StateDir; every append site tolerates nil).
	journal *journal

	mu         sync.Mutex
	members    map[string]*member // simlint:guardedby mu
	ring       *Ring              // simlint:guardedby mu
	generation uint64             // simlint:guardedby mu
	assigns    map[*attempt]bool  // simlint:guardedby mu
	placed     map[string]string  // simlint:guardedby mu
	placeRefs  map[string]int     // simlint:guardedby mu

	steals     atomic.Uint64
	rebalances atomic.Uint64
	readopted  atomic.Uint64
}

// NewCoordinator builds and starts a coordinator: its local queue, the
// embedded API server, and the lease sweeper. The coordinator is the
// cluster's lifecycle root — forwards and sweeps must outlive any single
// client request, and only Close stops them.
//
// simlint:rootctx
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:       opts,
		queue:      jobq.New(opts.Queue),
		cache:      simcache.New(opts.cacheBytes()),
		mux:        http.NewServeMux(),
		httpc:      &http.Client{},
		logger:     opts.Logger,
		rootCtx:    ctx,
		rootCancel: cancel,
		members:    map[string]*member{},
		ring:       NewRing(DefaultVirtualNodes),
		assigns:    map[*attempt]bool{},
		placed:     map[string]string{},
		placeRefs:  map[string]int{},
	}
	if c.logger == nil {
		c.logger = slog.New(slog.DiscardHandler)
	}
	srv, err := api.NewWithOptions(c.queue, c.cache, api.Options{Logger: opts.Logger})
	if err != nil {
		cancel()
		return nil, err
	}
	c.api = srv

	// Crash recovery: replay the journal before serving anything, so the
	// first register/submit already sees the re-adopted ring.
	var recovered JournalState
	if opts.StateDir != "" {
		jr, state, err := openJournal(opts.StateDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("cluster: opening journal: %w", err)
		}
		c.journal = jr
		recovered = state
		c.adoptJournal(state)
	}

	// Every endpoint the coordinator does not reroute falls through to the
	// embedded API server, so jobs, streams, cancellation, experiments and
	// engine listings behave exactly as standalone.
	c.mux.Handle("/", srv)
	c.mux.HandleFunc("POST /v1/sim", c.handleSubmitSim)
	c.mux.HandleFunc("GET /v1/arena", c.handleArena)
	c.mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleTrace)
	c.mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	c.mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	c.mux.HandleFunc("GET /v1/cluster/members", c.handleMembers)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)

	c.sweeperWG.Add(1)
	go c.sweepLeases(ctx)

	// Re-route placements the previous incarnation accepted but never
	// finished. The journaled members were re-leased above, so routing
	// works immediately; a member that actually died with the coordinator
	// transport-fails its placement and the steal path drops it.
	for _, pl := range recovered.Open {
		c.readoptPlacement(pl)
	}
	return c, nil
}

// adoptJournal installs replayed membership: every surviving worker gets a
// fresh lease (it has heartbeats in flight toward us already), and the
// ring rebuild bumps the generation past anything the fleet has seen, so
// the next heartbeat reply forces every worker to resync its replica.
func (c *Coordinator) adoptJournal(state JournalState) {
	if len(state.Members) == 0 && state.Generation == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for name, url := range state.Members {
		c.members[name] = &member{
			info:    memberInfo{Name: name, URL: url},
			expires: now.Add(c.opts.leaseTTL()),
		}
	}
	c.generation = state.Generation
	c.rebuildRingLocked()
	c.logger.Info("journal replayed", "workers", len(state.Members),
		"generation", c.generation, "open_placements", len(state.Open),
		"torn_records", state.TornRecords)
}

// readoptPlacement re-submits one orphaned placement from the journal and
// forwards it to the content key's current owner, where the submit-path
// checkpoint probe resumes the victim's snapshot if one exists. The job ID
// is recomputed from the request, so a corrupted record that no longer
// resolves is journaled done and dropped rather than re-routed blind.
func (c *Coordinator) readoptPlacement(pl Placement) {
	var req api.SimRequest
	if err := json.Unmarshal(pl.Req, &req); err != nil {
		c.logger.Warn("dropping unresolvable journaled placement", "job_id", pl.Job, "err", err)
		c.journal.append(journalRecord{T: "done", Job: pl.Job})
		return
	}
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		c.logger.Warn("dropping unresolvable journaled placement", "job_id", pl.Job, "err", err)
		c.journal.append(journalRecord{T: "done", Job: pl.Job})
		return
	}
	key := simcache.KeyFor(spec, cfg, ops)
	id := api.SimJobID(key)
	job, err := c.queue.SubmitExternal(id, req.Priority)
	if err != nil {
		// Duplicate means a live forward already owns it; anything else
		// means the queue is closing. Either way there is nothing to adopt.
		return
	}
	c.readopted.Add(1)
	c.logger.Info("placement re-adopted from journal", "job_id", id, "last_worker", pl.Worker)
	go c.forward(job, id, key, req)
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// API exposes the embedded server (drain flips, tests).
func (c *Coordinator) API() *api.Server { return c.api }

// Close stops the sweeper, cancels in-flight forwards, and drains the
// local queue within ctx's deadline. The journal stays open until the
// forwards have settled, so their terminal records land.
func (c *Coordinator) Close(ctx context.Context) error {
	c.rootCancel()
	c.sweeperWG.Wait()
	err := c.queue.Shutdown(ctx)
	c.journal.Close()
	return err
}

// Kill tears the coordinator down the way a SIGKILL would, for the chaos
// orchestrator: the journal is closed first (a dead process appends
// nothing), so in-flight placements stay open on disk for the next
// incarnation to re-adopt, then everything running is canceled without
// grace.
//
// simlint:rootctx
func (c *Coordinator) Kill() {
	c.journal.Close()
	c.rootCancel()
	c.sweeperWG.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = c.queue.Shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ---- membership ----

// handleRegister admits (or refreshes) a worker. The register.error fault
// point models an admission failure the worker must retry through.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Error("cluster.register.error"); err != nil {
		writeError(w, http.StatusInternalServerError, "registration failed: %v", err)
		return
	}
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "register: empty worker name")
		return
	}
	if u, err := url.Parse(req.URL); err != nil || !u.IsAbs() || u.Host == "" {
		writeError(w, http.StatusBadRequest, "register: worker url %q is not absolute", req.URL)
		return
	}

	c.mu.Lock()
	c.expireLocked(time.Now())
	m, known := c.members[req.Name]
	if !known {
		m = &member{info: memberInfo{Name: req.Name, URL: req.URL}}
		c.members[req.Name] = m
		c.rebuildRingLocked()
		c.journal.append(journalRecord{T: "member", Name: req.Name, URL: req.URL, Gen: c.generation})
		c.logger.Info("worker joined", "worker", req.Name, "url", req.URL,
			"workers", len(c.members))
	} else if m.info.URL != req.URL {
		// Same name, new address: the worker restarted somewhere else. The
		// ring keys by name, so ownership is unchanged.
		m.info.URL = req.URL
		c.journal.append(journalRecord{T: "member", Name: req.Name, URL: req.URL, Gen: c.generation})
	}
	m.expires = time.Now().Add(c.opts.leaseTTL())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleHeartbeat renews a lease. Unknown workers get 404 and re-register
// — that is the recovery path after a lease lapses or the coordinator
// restarts with empty state.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	c.mu.Lock()
	c.expireLocked(time.Now())
	m, ok := c.members[req.Name]
	if !ok {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "heartbeat from unregistered worker %q; re-register", req.Name)
		return
	}
	m.expires = time.Now().Add(c.opts.leaseTTL())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// handleLeave is a graceful departure: the worker drains, so drop it now
// instead of waiting out the lease.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad leave body: %v", err)
		return
	}
	c.dropMember(req.Name, "left")
	writeJSON(w, http.StatusOK, map[string]string{"left": req.Name})
}

// handleMembers reports the live ring.
func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	reply := c.joinReplyLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

// joinReplyLocked snapshots membership for register/heartbeat/members
// replies. Caller holds c.mu.
func (c *Coordinator) joinReplyLocked() joinReply {
	reply := joinReply{
		TTLMillis:  c.opts.leaseTTL().Milliseconds(),
		Generation: c.generation,
	}
	for _, name := range c.ring.Members() {
		m := c.members[name]
		reply.Members = append(reply.Members, memberInfo{
			Name: m.info.Name, URL: m.info.URL, Inflight: m.inflight,
		})
	}
	return reply
}

// rebuildRingLocked recomputes the ring from the live member set and bumps
// the generation. Caller holds c.mu.
func (c *Coordinator) rebuildRingLocked() {
	names := make([]string, 0, len(c.members))
	for name := range c.members {
		names = append(names, name)
	}
	c.ring.SetMembers(names)
	c.generation++
	c.rebalances.Add(1)
}

// expireLocked drops every member whose lease has lapsed. Caller holds
// c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for name, m := range c.members {
		if now.After(m.expires) {
			c.dropLocked(name, "lease expired")
		}
	}
}

// dropLocked removes one member, rebuilds the ring, and cancels the
// member's in-flight placements so their forwards steal the jobs back.
// Caller holds c.mu.
func (c *Coordinator) dropLocked(name, reason string) {
	if _, ok := c.members[name]; !ok {
		return
	}
	delete(c.members, name)
	c.rebuildRingLocked()
	c.journal.append(journalRecord{T: "leave", Name: name, Gen: c.generation})
	stolen := 0
	for at := range c.assigns {
		if at.worker == name {
			at.cancel()
			stolen++
		}
	}
	c.logger.Info("worker dropped", "worker", name, "reason", reason,
		"inflight_stolen", stolen, "workers", len(c.members))
}

func (c *Coordinator) dropMember(name, reason string) {
	c.mu.Lock()
	c.dropLocked(name, reason)
	c.mu.Unlock()
}

// sweepLeases expires lapsed leases on a timer, so a silent worker is
// dropped (and its jobs stolen) even when no request happens to touch the
// ring.
func (c *Coordinator) sweepLeases(ctx context.Context) {
	defer c.sweeperWG.Done()
	tick := time.NewTicker(c.opts.leaseTTL() / 2)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// ---- routing ----

// pickOwner lazily expires lapsed leases and returns key's ring owner.
func (c *Coordinator) pickOwner(key simcache.Key) (memberInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	name, ok := c.ring.Owner(key)
	if !ok {
		return memberInfo{}, false
	}
	return c.members[name].info, true
}

// trackAttempt registers an in-flight placement (and the owner's inflight
// gauge) so dropping the worker can cancel it.
func (c *Coordinator) trackAttempt(at *attempt) {
	c.mu.Lock()
	c.assigns[at] = true
	if m, ok := c.members[at.worker]; ok {
		m.inflight++
	}
	c.mu.Unlock()
}

func (c *Coordinator) untrackAttempt(at *attempt) {
	c.mu.Lock()
	delete(c.assigns, at)
	if m, ok := c.members[at.worker]; ok && m.inflight > 0 {
		m.inflight--
	}
	c.mu.Unlock()
}

// notePlaced remembers which worker a job landed on, for trace redirects.
func (c *Coordinator) notePlaced(id, workerURL string) {
	c.mu.Lock()
	if len(c.placed) >= maxPlacedEntries {
		c.placed = map[string]string{}
	}
	c.placed[id] = workerURL
	c.mu.Unlock()
}

// routeSim places one simulation on its ring owner and returns the
// worker's terminal answer, journaling the placement lifecycle so a
// coordinator crash can re-adopt it. Each routing attempt places the job
// exactly once. A transport-level failure is treated as a dead worker:
// drop it from the ring (stealing its other in-flight jobs too) and
// re-route to the new owner, who resumes from the latest shared checkpoint
// snapshot when there is one. An HTTP-level error means the worker is
// alive and rejecting — that fails the job, it does not steal. A slow
// placement is simply waited out: sims run once.
func (c *Coordinator) routeSim(ctx context.Context, id string, key simcache.Key, req api.SimRequest) ([]byte, bool, error) {
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	c.journalBegin(id, body)
	defer c.journalEnd(id)
	var lastErr error
	for range maxRouteAttempts {
		owner, ok := c.pickOwner(key)
		if !ok {
			return nil, false, errNoWorkers
		}
		c.journal.append(journalRecord{T: "placed", Job: id, Worker: owner.Name})
		c.notePlaced(id, owner.URL)
		data, cached, spoke, err := c.postSim(ctx, owner, id, body)
		if err == nil {
			return data, cached, nil
		}
		if ctx.Err() != nil {
			// The job was canceled or the coordinator is shutting down —
			// not a dead worker.
			return nil, false, ctx.Err()
		}
		if spoke {
			return nil, false, err
		}
		c.steals.Add(1)
		c.dropMember(owner.Name, fmt.Sprintf("forward failed: %v", err))
		c.logger.Info("job stolen", "job_id", id, "from", owner.Name)
		// Fault point: a coordinator that dawdles between detecting the
		// death and re-routing; clients must simply keep waiting.
		_ = faultinject.Sleep(ctx, "cluster.steal.stall")
		lastErr = err
	}
	return nil, false, fmt.Errorf("cluster: job %s exhausted its %d placements; workers dying faster than they join (last: %v)", id, maxRouteAttempts, lastErr)
}

// journalBegin reference-counts in-flight placements per job ID and
// journals "submit" only on the first: concurrent routes of the same
// content key (a re-adopted placement racing a re-submitted arena cell)
// are one logical placement, so the ledger must see exactly one open/close
// pair for it.
func (c *Coordinator) journalBegin(id string, req json.RawMessage) {
	c.mu.Lock()
	c.placeRefs[id]++
	first := c.placeRefs[id] == 1
	c.mu.Unlock()
	if first {
		c.journal.append(journalRecord{T: "submit", Job: id, Req: req})
	}
}

// journalEnd drops one reference; the last one journals "done" — unless the
// coordinator is dying, in which case the placement must stay open in the
// journal so the next incarnation re-adopts it. (A real crash would never
// reach this defer; the chaos stand-in Kill closes the journal first for
// the same effect.)
func (c *Coordinator) journalEnd(id string) {
	c.mu.Lock()
	c.placeRefs[id]--
	last := c.placeRefs[id] <= 0
	if last {
		delete(c.placeRefs, id)
	}
	c.mu.Unlock()
	if last && c.rootCtx.Err() == nil {
		c.journal.append(journalRecord{T: "done", Job: id})
	}
}

// postSim performs one synchronous placement. spoke reports whether the
// worker produced a coherent HTTP response; transport failures (spoke
// false) are what trigger stealing. The attempt is tracked so a lease
// sweep can cancel it mid-flight.
func (c *Coordinator) postSim(ctx context.Context, owner memberInfo, id string, body []byte) (data []byte, cached, spoke bool, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	at := &attempt{jobID: id, worker: owner.Name, cancel: cancel}
	c.trackAttempt(at)
	defer c.untrackAttempt(at)

	req, err := http.NewRequestWithContext(actx, http.MethodPost, owner.URL+"/v1/sim?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, false, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, false, false, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, false, fmt.Errorf("reading worker response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg := strings.TrimSpace(string(payload))
		var jsonErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &jsonErr) == nil && jsonErr.Error != "" {
			msg = jsonErr.Error
		}
		return nil, false, true, fmt.Errorf("worker %s answered %d: %s", owner.Name, resp.StatusCode, msg)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		// A torn 200 body: the worker died mid-response. Steal.
		return nil, false, false, fmt.Errorf("torn worker response: %w", err)
	}
	return env.Result, env.Cached, true, nil
}

// ---- proxied submission ----

// handleSubmitSim is the coordinator's POST /v1/sim: resolve and validate
// exactly as a worker would, derive the content key, and hand the job to
// its ring owner. The job is registered locally as an external job, so
// /v1/jobs/{id}, streams, and DELETE all work against the coordinator.
func (c *Coordinator) handleSubmitSim(w http.ResponseWriter, r *http.Request) {
	var req api.SimRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.CheckpointEveryOps == 0 {
		// Stamp the default explicitly before forwarding so every worker
		// resolves the same configuration — and the same content key —
		// regardless of its own flags.
		req.CheckpointEveryOps = c.opts.CheckpointEveryOps
	}
	spec, cfg, ops, err := api.ResolveSim(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := simcache.KeyFor(spec, cfg, ops)
	id := api.SimJobID(key)

	wait := req.Wait || r.URL.Query().Get("wait") == "1"
	job, err := c.queue.SubmitExternal(id, req.Priority)
	if errors.Is(err, jobq.ErrDuplicateID) {
		// Same content key already in flight: attach to it.
		if j, ok := c.queue.Get(id); ok {
			c.respondJob(w, r, wait, j)
			return
		}
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	go c.forward(job, id, key, req)
	c.respondJob(w, r, wait, job)
}

// forward drives one external job to its terminal state in the
// background: route (with stealing), then publish the result.
// Canceling the job cancels the placement.
func (c *Coordinator) forward(job *jobq.Job, id string, key simcache.Key, req api.SimRequest) {
	ctx, cancel := context.WithCancel(c.rootCtx)
	defer cancel()
	go func() {
		select {
		case <-job.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	data, cached, err := c.routeSim(ctx, id, key, req)
	if err != nil {
		c.queue.CompleteExternal(id, nil, err)
		return
	}
	c.queue.CompleteExternal(id, api.JobResult(data, cached), nil)
}

// respondJob mirrors the api server's submit response contract: 202 with
// job links, or block for the terminal result when wait is requested.
func (c *Coordinator) respondJob(w http.ResponseWriter, r *http.Request, wait bool, job *jobq.Job) {
	if !wait {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id": job.ID(),
			"status": "/v1/jobs/" + job.ID(),
			"stream": "/v1/jobs/" + job.ID() + "/stream",
		})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gave up; the forward keeps running for the next caller.
		return
	}
	v, err := job.Result()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, jobq.ErrCanceled) {
			code = http.StatusConflict
		}
		if errors.Is(err, errNoWorkers) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	data, cached, ok := api.JobResultBytes(v)
	if !ok {
		writeError(w, http.StatusInternalServerError, "job %s finished with an unexpected value", job.ID())
		return
	}
	writeJSON(w, http.StatusOK, envelope{Cached: cached, Result: data})
}

// handleTrace redirects a trace request to the worker that ran the job —
// traces are captured where the simulation ran and never cross the wire.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	workerURL, ok := c.placed[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			"no placement recorded for job %q: traces live on the worker that ran the simulation", id)
		return
	}
	http.Redirect(w, r, workerURL+"/v1/jobs/"+id+"/trace", http.StatusTemporaryRedirect)
}

// ---- distributed arena ----

// handleArena fans an arena sweep's cells out across the fleet: every
// (benchmark, engine) cell becomes a /v1/sim placement routed by its own
// content key, so cells land on their owners, dedupe against every other
// request in the cluster, and fill the shared tiers. The assembled report
// is cached locally under the same arena key a standalone daemon uses.
func (c *Coordinator) handleArena(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ops, err := api.ParseOps(q.Get("ops"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	priority := 0
	if v := q.Get("priority"); v != "" {
		priority, err = strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad priority %q", v)
			return
		}
	}
	var benchmarks []string
	if v := q.Get("benchmarks"); v != "" {
		benchmarks = strings.Split(v, ",")
	} else {
		for _, spec := range workloads.SuiteRepresentatives() {
			benchmarks = append(benchmarks, spec.Name)
		}
	}
	engines := registry.Names()
	if v := q.Get("engines"); v != "" {
		engines = strings.Split(v, ",")
	}
	// Validate every cell up front (unknown benchmark, bad engine spec)
	// so errors are a 400 here, not a failed job later.
	for _, bench := range benchmarks {
		for _, eng := range append([]string{"stride"}, engines...) {
			cellReq, err := api.ArenaCellRequest(bench, eng, ops)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if _, _, _, err := api.ResolveSim(cellReq); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	}

	key := simcache.KeyForArena(benchmarks, engines, ops)
	if data, ok := c.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, envelope{Cached: true, Result: data})
		return
	}
	jobID := "arena-" + key.String()
	job, err := c.queue.Submit(jobID, priority, c.arenaJob(benchmarks, engines, ops, key))
	if errors.Is(err, jobq.ErrDuplicateID) {
		if j, ok := c.queue.Get(jobID); ok {
			c.respondJob(w, r, q.Get("wait") == "1", j)
			return
		}
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	c.respondJob(w, r, q.Get("wait") == "1", job)
}

// arenaJob assembles one distributed sweep. Cells are dispatched
// concurrently (bounded by arenaFanout) and the report is assembled in the
// same benchmark-outer, engine-inner order as a standalone arena, so the
// rendered bytes agree with a single daemon sweeping the same matrix.
func (c *Coordinator) arenaJob(benchmarks, engines []string, ops int, key simcache.Key) jobq.Func {
	return func(ctx context.Context, j *jobq.Job) (any, error) {
		data, hit, err := c.cache.GetOrCompute(key, func() ([]byte, error) {
			return c.runArena(ctx, j, benchmarks, engines, ops)
		})
		if err != nil {
			return nil, err
		}
		return api.JobResult(data, hit), nil
	}
}

// arenaCellResult is one dispatched cell's decoded outcome.
type arenaCellResult struct {
	bench, engine string // engine "" = the stride baseline
	res           *api.SimResult
	err           error
}

// runArena dispatches every cell (plus each benchmark's stride baseline)
// across the fleet and assembles the report.
func (c *Coordinator) runArena(ctx context.Context, j *jobq.Job, benchmarks, engines []string, ops int) ([]byte, error) {
	type cellSpec struct{ bench, engine string }
	var specs []cellSpec
	for _, bench := range benchmarks {
		specs = append(specs, cellSpec{bench, ""})
		for _, eng := range engines {
			specs = append(specs, cellSpec{bench, eng})
		}
	}

	var (
		done    atomic.Int64
		total   = len(specs)
		sem     = make(chan struct{}, arenaFanout)
		results = make([]arenaCellResult, total)
		wg      sync.WaitGroup
	)
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec cellSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			engineSpec := spec.engine
			if engineSpec == "" {
				engineSpec = "stride"
			}
			res, err := c.dispatchCell(ctx, spec.bench, engineSpec, ops)
			results[i] = arenaCellResult{bench: spec.bench, engine: spec.engine, res: res, err: err}
			j.SetProgress("simulating", int(done.Add(1)), total)
		}(i, spec)
	}
	wg.Wait()

	baselines := map[string]*api.SimResult{}
	cellRes := map[cellSpec]*api.SimResult{}
	for i, spec := range specs {
		r := results[i]
		if r.err != nil {
			return nil, fmt.Errorf("cell %s/%s: %w", spec.bench, orStride(spec.engine), r.err)
		}
		if spec.engine == "" {
			baselines[spec.bench] = r.res
		} else {
			cellRes[spec] = r.res
		}
	}

	var cells []report.ArenaCell
	for _, bench := range benchmarks {
		base := baselines[bench]
		for _, eng := range engines {
			res := cellRes[cellSpec{bench, eng}]
			cells = append(cells, api.MakeArenaCell(eng, bench, base, res))
		}
	}
	return api.MarshalArenaReport(ops, benchmarks, engines, cells)
}

// dispatchCell routes one arena cell through the cluster under its /v1/sim
// content key.
func (c *Coordinator) dispatchCell(ctx context.Context, bench, engineSpec string, ops int) (*api.SimResult, error) {
	cellReq, err := api.ArenaCellRequest(bench, engineSpec, ops)
	if err != nil {
		return nil, err
	}
	if c.opts.CheckpointEveryOps != 0 && cellReq.CheckpointEveryOps == 0 {
		cellReq.CheckpointEveryOps = c.opts.CheckpointEveryOps
	}
	spec, cfg, resolvedOps, err := api.ResolveSim(cellReq)
	if err != nil {
		return nil, err
	}
	key := simcache.KeyFor(spec, cfg, resolvedOps)
	data, _, err := c.routeSim(ctx, api.SimJobID(key), key, cellReq)
	if err != nil {
		return nil, err
	}
	var res api.SimResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("corrupt cell result: %w", err)
	}
	return &res, nil
}

func orStride(engine string) string {
	if engine == "" {
		return "stride(baseline)"
	}
	return engine
}

// ---- cluster telemetry ----

// handleReadyz: a coordinator with no live workers can accept nothing.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	live := len(c.members)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !c.queue.Stats().Accepting {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if live == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live workers")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics appends the cluster block after the embedded server's
// standard series.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.api.ServeHTTP(w, r)

	c.mu.Lock()
	c.expireLocked(time.Now())
	type row struct {
		name     string
		inflight int
	}
	rows := make([]row, 0, len(c.members))
	for _, name := range c.ring.Members() {
		rows = append(rows, row{name, c.members[name].inflight})
	}
	generation := c.generation
	c.mu.Unlock()

	p := func(name, help, typ string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	p("cdpd_cluster_workers_live", "Workers holding a live lease.", "gauge", len(rows))
	p("cdpd_cluster_steals_total", "Jobs reclaimed from dead workers and re-routed.", "counter", c.steals.Load())
	p("cdpd_cluster_rebalances_total", "Hash-ring rebuilds from membership changes.", "counter", c.rebalances.Load())
	p("cdpd_cluster_generation", "Membership generation (increments per change).", "gauge", generation)
	p("cdpd_cluster_readopted_total", "Orphaned placements re-adopted from the journal after a restart.", "counter", c.readopted.Load())
	p("cdpd_cluster_placements_open", "External placements accepted but not yet terminal.", "gauge", c.queue.ExternalInflight())
	if c.journal != nil {
		p("cdpd_cluster_journal_writes_total", "Records appended to the write-ahead journal.", "counter", c.journal.writes.Load())
		p("cdpd_cluster_journal_write_errors_total", "Journal appends that failed (recovery fidelity lost, requests unaffected).", "counter", c.journal.writeErrs.Load())
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "# HELP cdpd_cluster_worker_inflight Jobs currently placed on each worker.\n")
		fmt.Fprintf(w, "# TYPE cdpd_cluster_worker_inflight gauge\n")
		for _, row := range rows {
			fmt.Fprintf(w, "cdpd_cluster_worker_inflight{worker=%q} %d\n", row.name, row.inflight)
		}
	}
}
