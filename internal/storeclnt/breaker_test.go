package storeclnt

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/retry"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
)

// fakeClock is an injectable breaker clock advanced by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// togglableServer serves the real storesrv handler, but can be switched into
// a failing mode where every request 500s without reaching the backend. It
// counts the requests that actually arrive.
type togglableServer struct {
	inner   http.Handler
	failing atomic.Bool
	hits    atomic.Int64
}

func (s *togglableServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	if s.failing.Load() {
		http.Error(w, `{"error": "injected outage", "code": "internal"}`, http.StatusInternalServerError)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// brokenClient returns a Remote, the togglable server in front of its
// backend, and the fake breaker clock. Retries are disabled so one call is
// one attempt and breaker arithmetic stays exact.
func brokenClient(t *testing.T, threshold int, cooldown time.Duration, opts ...Option) (*Remote, *togglableServer, *fakeClock) {
	t.Helper()
	backend := store.NewSharded(2)
	srv := &togglableServer{inner: storesrv.New(backend, storesrv.Config{})}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	clk := newFakeClock()
	opts = append([]Option{
		withRetryPolicy(retry.Policy{Attempts: 1}),
		withBreaker(threshold, cooldown),
		withBreakerClock(clk.Now),
	}, opts...)
	return New(ts.URL, opts...), srv, clk
}

// TestBreakerTransitions walks the full state machine: closed -> open after
// threshold consecutive failures, fail-fast while open (the server is not
// touched), half-open probe after cooldown whose failure re-opens, and a
// successful probe that closes the circuit again.
func TestBreakerTransitions(t *testing.T) {
	const threshold, cooldown = 3, 2 * time.Second
	r, srv, clk := brokenClient(t, threshold, cooldown, withCacheSize(0))
	defer r.Close()

	if err := r.Put(storetest.MkProfile("k", nil, 2)); err != nil {
		t.Fatal(err)
	}

	// Closed -> open: exactly threshold failing calls trip the circuit.
	srv.failing.Store(true)
	for i := 0; i < threshold; i++ {
		if _, err := r.Find("k", nil); err == nil {
			t.Fatalf("call %d succeeded against a failing server", i)
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d refused before the threshold was reached", i)
		}
	}

	// Open: calls fail fast with ErrCircuitOpen and never reach the wire.
	before := srv.hits.Load()
	for i := 0; i < 5; i++ {
		if _, err := r.Find("k", nil); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open breaker let a call through: %v", err)
		}
	}
	if got := srv.hits.Load(); got != before {
		t.Fatalf("open breaker hit the server %d times", got-before)
	}
	if opens := r.Stats().BreakerOpens; opens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", opens)
	}

	// Cooldown elapses; the half-open probe fails and re-opens the circuit.
	clk.Advance(cooldown + time.Millisecond)
	if _, err := r.Find("k", nil); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe should have reached the failing server: %v", err)
	}
	if _, err := r.Find("k", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe must re-open the circuit")
	}
	if opens := r.Stats().BreakerOpens; opens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 after failed probe", opens)
	}

	// Server recovers; after another cooldown the probe succeeds and the
	// circuit closes for good.
	srv.failing.Store(false)
	clk.Advance(cooldown + time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := r.Find("k", nil); err != nil {
			t.Fatalf("call %d after recovery: %v", i, err)
		}
	}
	if opens := r.Stats().BreakerOpens; opens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (probe success must close, not bounce)", opens)
	}
}

// TestBreakerEndpointsIsolated: an outage tripping the profiles endpoint
// must not open the keys endpoint's circuit.
func TestBreakerEndpointsIsolated(t *testing.T) {
	r, srv, _ := brokenClient(t, 2, time.Minute, withCacheSize(0))
	defer r.Close()

	srv.failing.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := r.Find("k", nil); err == nil {
			t.Fatal("find succeeded against failing server")
		}
	}
	if _, err := r.Find("k", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("profiles circuit should be open: %v", err)
	}
	srv.failing.Store(false)
	if _, err := r.Keys(); err != nil {
		t.Fatalf("keys endpoint must be unaffected by the profiles outage: %v", err)
	}
}

// TestBreakerOpenServesStale: an open circuit serves the cached entry,
// flagged Stale and carrying its generation ETag; uncached keys still fail
// with ErrCircuitOpen.
func TestBreakerOpenServesStale(t *testing.T) {
	const threshold = 2
	r, srv, _ := brokenClient(t, threshold, time.Minute)
	defer r.Close()

	p := storetest.MkProfile("cachedcmd", nil, 3)
	if err := r.Put(p); err != nil {
		t.Fatal(err)
	}
	// Prime the cache while healthy.
	fresh, fr, err := r.FindDetailed(context.Background(), "cachedcmd", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stale || fr.ETag == "" {
		t.Fatalf("healthy read freshness = %+v, want fresh with ETag", fr)
	}

	// Trip the circuit.
	srv.failing.Store(true)
	for i := 0; i < threshold; i++ {
		_, _ = r.Keys() // fail on another endpoint first: must NOT enable staleness
	}
	if _, err := r.Keys(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("keys circuit should be open: %v", err)
	}
	for i := 0; i < threshold; i++ {
		_, _, _ = r.FindDetailed(context.Background(), "cachedcmd", nil)
	}

	// Open circuit + cached key: stale flagged result, same content.
	set, fr2, err := r.FindDetailed(context.Background(), "cachedcmd", nil)
	if err != nil {
		t.Fatalf("breaker-open read of a cached key must degrade, not fail: %v", err)
	}
	if !fr2.Stale {
		t.Fatal("degraded read not flagged Stale")
	}
	if fr2.ETag != fr.ETag {
		t.Fatalf("stale read ETag = %q, want the cached generation %q", fr2.ETag, fr.ETag)
	}
	if len(set) != len(fresh) || set[0].Command != fresh[0].Command {
		t.Fatal("stale read returned different content than the cached entry")
	}
	if r.Stats().StaleServes == 0 {
		t.Fatal("StaleServes counter never moved")
	}

	// Plain Find degrades the same way (the flag is just not visible).
	if _, err := r.Find("cachedcmd", nil); err != nil {
		t.Fatalf("plain Find should also serve stale: %v", err)
	}

	// Uncached key: nothing to degrade to.
	if _, _, err := r.FindDetailed(context.Background(), "nevercached", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("uncached key under open breaker = %v, want ErrCircuitOpen", err)
	}
}

// TestStaleEntryRefreshesAfterRecovery: once the circuit closes again, the
// next read revalidates against the server and is no longer stale.
func TestStaleEntryRefreshesAfterRecovery(t *testing.T) {
	const threshold, cooldown = 2, time.Second
	r, srv, clk := brokenClient(t, threshold, cooldown)
	defer r.Close()

	if err := r.Put(storetest.MkProfile("c", nil, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Find("c", nil); err != nil {
		t.Fatal(err)
	}
	srv.failing.Store(true)
	for i := 0; i < threshold; i++ {
		_, _, _ = r.FindDetailed(context.Background(), "c", nil)
	}
	if _, fr, err := r.FindDetailed(context.Background(), "c", nil); err != nil || !fr.Stale {
		t.Fatalf("expected stale serve while open: fresh=%+v err=%v", fr, err)
	}

	srv.failing.Store(false)
	clk.Advance(cooldown + time.Millisecond)
	_, fr, err := r.FindDetailed(context.Background(), "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stale {
		t.Fatal("read after recovery still flagged stale")
	}
}
