package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/jobq"
	"repro/internal/simcache"
)

// fakeClock is a manual clock for breaker tests.
type fakeClock struct{ now atomic.Int64 }

func (f *fakeClock) Now() time.Time                { return time.Unix(0, f.now.Load()) }
func (f *fakeClock) advance(d time.Duration)       { f.now.Add(int64(d)) }
func noSleep(context.Context, time.Duration) error { return nil }

// scriptedServer answers each request with the next status in script
// (the last entry repeats), recording sleeps the client takes.
func scriptedServer(t *testing.T, script []int, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		code := script[i]
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "7")
		}
		w.WriteHeader(code)
		if code < 300 {
			_, _ = w.Write([]byte(body))
		} else {
			_, _ = w.Write([]byte(`{"error":"scripted failure"}`))
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestRetryAfterHonored: a 429 with Retry-After sleeps exactly the hinted
// duration (not the jittered schedule) before succeeding.
func TestRetryAfterHonored(t *testing.T) {
	ts, calls := scriptedServer(t, []int{429, 429, 200}, `{"cached":true,"result":{}}`)
	var sleeps []time.Duration
	c := New(Config{
		BaseURL: ts.URL,
		Rand:    func() float64 { return 0.5 },
		Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	})
	env, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "b2c"})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Cached {
		t.Fatal("lost the cached flag")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3", got)
	}
	if len(sleeps) != 2 || sleeps[0] != 7*time.Second || sleeps[1] != 7*time.Second {
		t.Fatalf("sleeps %v, want two 7s Retry-After waits", sleeps)
	}
}

// TestFullJitterBackoff: without Retry-After the schedule is
// rand()·min(MaxBackoff, Base·2ⁿ).
func TestFullJitterBackoff(t *testing.T) {
	ts, calls := scriptedServer(t, []int{500}, "")
	var sleeps []time.Duration
	c := New(Config{
		BaseURL:     ts.URL,
		MaxRetries:  3,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  300 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
		Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	})
	_, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "b2c"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("want exhausted 500, got %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d requests, want 1 + 3 retries", got)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full jitter at rand=0.5, capped)", i, sleeps[i], want[i])
		}
	}
}

// TestBadRequestNotRetried: validation failures burn no retries.
func TestBadRequestNotRetried(t *testing.T) {
	ts, calls := scriptedServer(t, []int{400}, "")
	c := New(Config{BaseURL: ts.URL, Sleep: noSleep})
	_, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Message != "scripted failure" {
		t.Fatalf("want the 400 verbatim, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d requests, want exactly 1", got)
	}
}

// TestTornBodyRetried: a 200 whose body is not the promised JSON (the
// api.respond.partialwrite shape) is retried, not surfaced.
func TestTornBodyRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(200)
			_, _ = w.Write([]byte(`{"cached":`))
			return
		}
		w.WriteHeader(200)
		_, _ = w.Write([]byte(`{"cached":false,"result":{}}`))
	}))
	t.Cleanup(ts.Close)
	c := New(Config{BaseURL: ts.URL, Sleep: noSleep})
	if _, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "b2c"}); err != nil {
		t.Fatalf("torn body not recovered: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d requests, want 2", got)
	}
}

// TestContextDeadlineEndsRetries: the caller's context stops the retry
// loop even when the server keeps inviting retries.
func TestContextDeadlineEndsRetries(t *testing.T) {
	ts, _ := scriptedServer(t, []int{503}, "")
	c := New(Config{
		BaseURL: ts.URL,
		Sleep: func(ctx context.Context, d time.Duration) error {
			return context.DeadlineExceeded
		},
	})
	_, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "b2c"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestCircuitBreaker: consecutive connection failures open the circuit
// (fail-fast, no dialing), the cooldown admits a half-open probe, and a
// healthy answer closes it again.
func TestCircuitBreaker(t *testing.T) {
	clk := &fakeClock{}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	down.Close() // nothing listens: every dial fails
	c := New(Config{
		BaseURL:          down.URL,
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
		Sleep:            noSleep,
		Now:              clk.Now,
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); err == nil {
			t.Fatal("dead server answered")
		}
	}
	if _, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("third call past threshold: %v, want circuit open", err)
	}

	// A live server comes back; before the cooldown the circuit still
	// rejects, after it the probe goes through and closes the circuit.
	up, _ := scriptedServer(t, []int{200}, `{"cached":false,"result":{}}`)
	c.cfg.BaseURL = up.URL
	if _, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call during cooldown: %v, want circuit open", err)
	}
	clk.advance(6 * time.Second)
	if _, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); err != nil {
		t.Fatalf("closed circuit: %v", err)
	}
}

// TestWithBaseURLBreakerIsolation: WithBaseURL shares the breaker set, but
// circuits are per endpoint host — opening the circuit against a dead
// worker leaves a sibling client pointed at a healthy coordinator working.
func TestWithBaseURLBreakerIsolation(t *testing.T) {
	clk := &fakeClock{}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // port released: every dial is refused
	up, upCalls := scriptedServer(t, []int{200}, `{"cached":false,"result":{}}`)

	base := New(Config{
		BaseURL:          up.URL,
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Sleep:            noSleep,
		Now:              clk.Now,
	})
	worker := base.WithBaseURL(dead.URL)
	if worker.breakers != base.breakers {
		t.Fatal("WithBaseURL did not share the breaker set")
	}
	if worker.http != base.http {
		t.Fatal("WithBaseURL did not share the transport")
	}

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := worker.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); err == nil {
			t.Fatal("dead worker answered")
		}
	}
	if _, err := worker.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("worker circuit past threshold: %v, want open", err)
	}
	// The coordinator's circuit never saw those failures.
	if _, err := base.RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); err != nil {
		t.Fatalf("healthy endpoint caught the dead worker's circuit: %v", err)
	}
	if got := upCalls.Load(); got != 1 {
		t.Fatalf("healthy endpoint saw %d calls, want 1", got)
	}
	// And a second derived client for the SAME dead host inherits the open
	// circuit — that is the point of sharing the set.
	if _, err := base.WithBaseURL(dead.URL).RunSim(ctx, api.SimRequest{Benchmark: "b2c"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("re-derived client to the open host: %v, want circuit open", err)
	}
}

// TestPostFollowsRedirectWithBody: a 307 from the coordinator to the job's
// owning worker replays the POST body (bytes.Reader supplies GetBody), so
// cross-daemon hops are invisible to the caller.
func TestPostFollowsRedirectWithBody(t *testing.T) {
	var gotBody atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotBody.Store(string(b))
		w.WriteHeader(200)
		_, _ = w.Write([]byte(`{"cached":true,"result":{}}`))
	}))
	t.Cleanup(owner.Close)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, owner.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	t.Cleanup(front.Close)

	c := New(Config{BaseURL: front.URL, Sleep: noSleep})
	env, err := c.RunSim(context.Background(), api.SimRequest{Benchmark: "b2c", Ops: 12345})
	if err != nil {
		t.Fatalf("redirected POST: %v", err)
	}
	if !env.Cached {
		t.Fatal("lost the cached flag across the redirect")
	}
	body, _ := gotBody.Load().(string)
	if body == "" {
		t.Fatal("redirect target never saw the request")
	}
	if !strings.Contains(body, `"ops":12345`) || !strings.Contains(body, `"benchmark":"b2c"`) {
		t.Fatalf("body not replayed across the 307: %s", body)
	}
}

// TestEndToEndAgainstDaemonWithFaults is the cross-layer contract test:
// against the real API server with the partial-write fault armed, the
// client's retry discipline still delivers the correct result.
func TestEndToEndAgainstDaemonWithFaults(t *testing.T) {
	q := jobq.New(jobq.Config{Workers: 2, Capacity: 8})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	srv := api.New(q, simcache.New(1<<20))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	prev := faultinject.Enable(faultinject.MustParse(21,
		"api.respond.partialwrite:times=1,api.respond.latency:times=1:delay=10ms"))
	defer faultinject.Enable(prev)

	c := New(Config{BaseURL: ts.URL, Sleep: noSleep})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	env, err := c.RunSim(ctx, api.SimRequest{Benchmark: "b2c", Ops: 10_000})
	if err != nil {
		t.Fatalf("client did not survive the fault plan: %v", err)
	}
	if env.Result.Benchmark != "b2c" || env.Result.Cycles <= 0 {
		t.Fatalf("result %+v", env.Result)
	}
	if !c.Ready(ctx) {
		t.Fatal("daemon not ready after the exchange")
	}
}
