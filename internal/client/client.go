// Package client is a resilient Go client for the cdpd daemon. It wraps
// the HTTP API with the retry discipline the server's fault model calls
// for: context deadlines end everything early, transient failures (429
// backpressure, 503 drains, 5xx, torn responses, connection errors) retry
// with exponential backoff and full jitter, Retry-After hints are honored,
// and a circuit breaker stops hammering a daemon that is clearly down.
//
// Retries are idempotent by construction, not by client-side bookkeeping:
// cdpd keys simulation jobs and cached results by the content hash of
// (benchmark, configuration, µop budget), so a retried submission either
// hits the result cache, attaches to the still-running original job, or
// recomputes a byte-identical result. The client never needs to ask
// "did my first attempt actually go through?".
//
// Against a cluster the same discipline extends across daemons: redirects
// to a job's owning worker are followed transparently (requests are built
// with a rewindable body, so even a 307 on POST /v1/sim replays safely —
// content keying makes the replay idempotent), and circuit breakers are
// per endpoint, so one dead worker fails fast without cutting off the
// coordinator or its healthy peers (see WithBaseURL). Retries cannot
// multiply a coordinator's work either: a retried key that is still in
// flight attaches to the placement already running for it, so every
// attempt is the same request and carries no attempt count.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// Config tunes a Client. The zero value of every field has a sane default;
// Rand, Sleep, and Now exist so tests can run the full retry loop without
// wall-clock time.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil uses http.DefaultClient. Per-request
	// deadlines come from the caller's context, not the http.Client.
	HTTP *http.Client

	// MaxRetries bounds re-attempts after the first try (0 defaults to 4,
	// so up to 5 requests total). Use -1 for no retries at all.
	MaxRetries int
	// BaseBackoff seeds the exponential schedule (0 defaults to 200ms);
	// attempt n sleeps rand(0, min(MaxBackoff, BaseBackoff·2ⁿ)) — "full
	// jitter", which decorrelates a thundering herd better than equal
	// jitter when many clients retry the same outage.
	BaseBackoff time.Duration
	// MaxBackoff caps a single sleep (0 defaults to 10s).
	MaxBackoff time.Duration

	// BreakerThreshold is how many consecutive transport-level failures
	// open the circuit (0 defaults to 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// letting one probe through (0 defaults to 5s).
	BreakerCooldown time.Duration

	// Rand returns a float64 in [0,1) for jitter; nil uses math/rand.
	Rand func() float64
	// Sleep blocks for d or until ctx ends; nil uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the breaker's clock; nil uses time.Now.
	Now func() time.Time
}

func (c Config) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 4
	default:
		return c.MaxRetries
	}
}

func (c Config) baseBackoff() time.Duration {
	if c.BaseBackoff > 0 {
		return c.BaseBackoff
	}
	return 200 * time.Millisecond
}

func (c Config) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 10 * time.Second
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold == 0 {
		return 5
	}
	return c.BreakerThreshold
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 5 * time.Second
}

// ErrCircuitOpen fails a call fast while the breaker cools down; the
// daemon was unreachable (or answering only errors) on several consecutive
// attempts and hammering it helps nobody.
var ErrCircuitOpen = errors.New("client: circuit open, daemon recently unreachable")

// breaker is one endpoint's circuit state: consecutive transport failures,
// and when the circuit opened (zero when closed). Each endpoint gets its
// own — in a cluster the client talks to the coordinator and, via
// WithBaseURL or redirects, to individual workers, and one dead worker
// must not open the circuit for the whole fleet.
type breaker struct {
	mu       sync.Mutex
	failures int       // simlint:guardedby mu
	openedAt time.Time // simlint:guardedby mu
	probing  bool      // simlint:guardedby mu
}

// allow gates a call on the circuit state: closed lets everything through,
// open rejects until the cooldown elapses, then exactly one half-open
// probe is allowed through at a time.
func (b *breaker) allow(cfg *Config) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return nil
	}
	if cfg.Now().Sub(b.openedAt) < cfg.breakerCooldown() || b.probing {
		return ErrCircuitOpen
	}
	b.probing = true
	return nil
}

// record feeds one attempt's outcome back. spoke means the server answered
// coherently — even a 429 or a 400 closes the circuit, because the daemon
// is demonstrably up and talking; only connection failures and torn
// responses count toward opening it.
func (b *breaker) record(cfg *Config, spoke bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if spoke {
		b.failures = 0
		b.openedAt = time.Time{}
		return
	}
	b.failures++
	if b.failures >= cfg.breakerThreshold() {
		b.openedAt = cfg.Now()
	}
}

// breakerSet maps endpoint (URL host) to its breaker. Clients derived with
// WithBaseURL share one set, so circuit history survives retargeting.
type breakerSet struct {
	mu sync.Mutex
	m  map[string]*breaker // simlint:guardedby mu
}

func (s *breakerSet) forHost(host string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[host]
	if !ok {
		b = &breaker{}
		s.m[host] = b
	}
	return b
}

// APIError is a non-2xx answer that is NOT retryable (or exhausted its
// retries): the server spoke, and this is what it said.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Client is safe for concurrent use.
type Client struct {
	cfg      Config
	http     *http.Client
	host     string // breaker key for cfg.BaseURL
	breakers *breakerSet
}

// New builds a client; cfg.BaseURL is the only required field.
func New(cfg Config) *Client {
	h := cfg.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Client{
		cfg:      cfg,
		http:     h,
		host:     hostOf(cfg.BaseURL),
		breakers: &breakerSet{m: map[string]*breaker{}},
	}
}

// hostOf extracts the breaker key for a base URL; an unparseable URL keys
// by its raw string (the request build will fail loudly anyway).
func hostOf(base string) string {
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return base
	}
	return u.Host
}

// WithBaseURL returns a client targeting base that shares this client's
// transport, retry configuration, and per-endpoint breaker state. Cluster
// callers hold one logical client and retarget it at the coordinator or an
// individual worker; a circuit opened against one endpoint stays open for
// the derived clients pointing there and only there.
func (c *Client) WithBaseURL(base string) *Client {
	dup := *c
	dup.cfg.BaseURL = base
	dup.host = hostOf(base)
	return &dup
}

// Envelope is a terminal result: the rendered simulation outcome plus
// whether the daemon served it from its content-addressed cache.
type Envelope struct {
	Cached bool          `json:"cached"`
	Result api.SimResult `json:"result"`
}

// RunSim submits a simulation synchronously (wait=1) and retries until it
// has a terminal answer, the context ends, retries are exhausted, or the
// error is one a retry cannot fix (4xx validation, job canceled).
func (c *Client) RunSim(ctx context.Context, req api.SimRequest) (*Envelope, error) {
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var env Envelope
	if err := c.do(ctx, http.MethodPost, "/v1/sim", body, &env); err != nil {
		return nil, err
	}
	return &env, nil
}

// JobView mirrors the daemon's GET /v1/jobs/{id} response.
type JobView struct {
	JobID  string          `json:"job_id"`
	State  string          `json:"state"`
	Stage  string          `json:"stage,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached *bool           `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	var view JobView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// Cancel asks the daemon to cancel a job. Cancellation is idempotent from
// the caller's perspective: a job that already finished reports 409, which
// is surfaced as an *APIError, not retried.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Ready reports whether the daemon currently passes its own readiness
// check (a single attempt; readiness polling should not retry-loop).
func (c *Client) Ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// do runs one logical call through the breaker and the retry loop,
// decoding a 2xx body into out when out is non-nil.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.breakerAllow(); err != nil {
			// The breaker state belongs to this client's endpoint host; a
			// sibling client from WithBaseURL targeting a healthy daemon is
			// unaffected.
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		spoke, retryable, wait, err := c.once(ctx, method, path, body, out)
		c.breakerRecord(spoke)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= c.cfg.maxRetries() {
			return lastErr
		}
		if wait <= 0 {
			wait = c.jitteredBackoff(attempt)
		}
		if err := c.cfg.Sleep(ctx, wait); err != nil {
			return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
	}
}

// once performs a single HTTP exchange. spoke reports whether the server
// produced a coherent HTTP response (feeding the breaker: overload and
// validation answers prove the daemon is up; connection failures and torn
// bodies do not); retryable reports whether a failure is worth retrying,
// with any server-mandated wait (Retry-After). Every attempt is the same
// request: the server, not a header, keeps retries from multiplying work,
// because a retry of a key still in flight attaches to the running job.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (spoke, retryable bool, wait time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		// bytes.Reader gives NewRequest a GetBody, which is what lets the
		// transport replay the body across a 307/308 redirect to a job's
		// owning worker instead of failing the cross-daemon hop.
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return false, false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Connection refused, reset, timeout: the class of failure the
		// fault points api.respond.partialwrite and jobq.worker.crash
		// produce. Never retry past the caller's deadline.
		if ctx.Err() != nil {
			return false, false, 0, ctx.Err()
		}
		return false, true, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Headers arrived but the body died: a torn response.
		return false, true, 0, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return true, false, 0, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			// A 200 with an unparseable body is a truncated write, not a
			// malformed request; the retry will be served whole.
			return false, true, 0, fmt.Errorf("client: decoding response: %w", err)
		}
		return true, false, 0, nil
	}

	msg := strings.TrimSpace(string(data))
	var jsonErr struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &jsonErr) == nil && jsonErr.Error != "" {
		msg = jsonErr.Error
	}
	apiErr := &APIError{Status: resp.StatusCode, Message: msg}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Backpressure and drains are the server explicitly asking us to
		// come back later.
		return true, true, c.retryAfter(resp), apiErr
	case resp.StatusCode >= 500:
		return true, true, 0, apiErr
	default:
		// 4xx: the request itself is the problem; retrying reproduces it.
		return true, false, 0, apiErr
	}
}

// retryAfter parses a Retry-After seconds hint, capped to MaxBackoff so a
// confused server cannot park us for an hour.
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if limit := c.cfg.maxBackoff(); d > limit {
		d = limit
	}
	return d
}

// jitteredBackoff is full jitter: uniform in (0, min(MaxBackoff, Base·2ⁿ)].
func (c *Client) jitteredBackoff(attempt int) time.Duration {
	ceil := c.cfg.baseBackoff() << uint(attempt)
	if limit := c.cfg.maxBackoff(); ceil > limit || ceil <= 0 {
		ceil = limit
	}
	d := time.Duration(c.cfg.Rand() * float64(ceil))
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// breakerAllow gates a call on this endpoint's circuit.
func (c *Client) breakerAllow() error {
	if c.cfg.breakerThreshold() < 0 {
		return nil
	}
	return c.breakers.forHost(c.host).allow(&c.cfg)
}

// breakerRecord feeds one attempt's outcome back to this endpoint's
// circuit.
func (c *Client) breakerRecord(spoke bool) {
	if c.cfg.breakerThreshold() < 0 {
		return
	}
	c.breakers.forHost(c.host).record(&c.cfg, spoke)
}
