package storeclnt

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
)

// faultyHandler wraps the service and degrades idempotent traffic: the
// first attempt at every distinct GET/DELETE request is dropped with a 503
// (the client must retry), and every third idempotent request is delayed.
// The schedule is deterministic per request identity, so the conformance
// suite cannot flake — only genuinely missing retry logic fails it.
type faultyHandler struct {
	inner http.Handler

	mu      sync.Mutex
	seen    map[string]int
	dropped int
	delayed int
}

func newFaultyHandler(inner http.Handler) *faultyHandler {
	return &faultyHandler{inner: inner, seen: map[string]int{}}
}

func (f *faultyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodDelete
	if !idempotent || strings.HasSuffix(r.URL.Path, "/healthz") {
		f.inner.ServeHTTP(w, r)
		return
	}
	key := r.Method + " " + r.URL.String() + " " + r.Header.Get("If-None-Match")
	f.mu.Lock()
	f.seen[key]++
	attempt := f.seen[key]
	drop := attempt == 1
	delay := !drop && attempt%3 == 0
	if drop {
		f.dropped++
	}
	if delay {
		f.delayed++
	}
	f.mu.Unlock()
	if drop {
		http.Error(w, `{"error": "injected drop", "code": "internal"}`, http.StatusServiceUnavailable)
		return
	}
	if delay {
		time.Sleep(2 * time.Millisecond)
	}
	f.inner.ServeHTTP(w, r)
}

func (f *faultyHandler) stats() (dropped, delayed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped, f.delayed
}

// TestRemoteConformanceThroughFaultyServer runs the full backend
// conformance suite against a Remote whose server drops the first attempt
// of every idempotent request and delays others: with bounded retries the
// suite must pass exactly as it does against a healthy server, proving the
// retry path is invisible to correctness.
func TestRemoteConformanceThroughFaultyServer(t *testing.T) {
	var handlers []*faultyHandler
	var mu sync.Mutex
	mk := func(t *testing.T, backend store.Store) store.Store {
		t.Helper()
		fh := newFaultyHandler(storesrv.New(backend, storesrv.Config{}))
		mu.Lock()
		handlers = append(handlers, fh)
		mu.Unlock()
		ts := httptest.NewServer(fh)
		t.Cleanup(ts.Close)
		// The fault schedule 503s the first attempt of EVERY idempotent
		// request, so the Concurrent subtest produces bursts of consecutive
		// failures no healthy deployment would: disable the breaker here
		// (its own transitions are covered by breaker_test.go) so the suite
		// exercises the retry path alone.
		return New(ts.URL, withBreaker(0, 0))
	}
	storetest.Run(t, storetest.Factory{
		New: func(t *testing.T) store.Store {
			return mk(t, store.NewSharded(4))
		},
		NewWithLimit: func(t *testing.T, limit int64) store.Store {
			return mk(t, store.NewShardedWithLimit(4, limit))
		},
	})
	var dropped, delayed int
	for _, fh := range handlers {
		d, l := fh.stats()
		dropped += d
		delayed += l
	}
	if dropped == 0 {
		t.Fatal("fault injection never fired; the suite proved nothing")
	}
	t.Logf("conformance passed through %d dropped and %d delayed responses", dropped, delayed)
}

// TestRemoteDeleteRetryIdempotent: a DELETE whose response is lost twice
// must still succeed through retries, and the repeated server-side deletes
// must not invent an error (deleting an absent key is not one).
func TestRemoteDeleteRetryIdempotent(t *testing.T) {
	backend := store.NewSharded(2)
	srv := storesrv.New(backend, storesrv.Config{})
	var mu sync.Mutex
	failures := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			mu.Lock()
			failures[r.URL.String()]++
			n := failures[r.URL.String()]
			mu.Unlock()
			if n <= 2 {
				// Let the backend perform the delete, then lose the
				// response: the retried DELETE hits an absent key.
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, r)
				http.Error(w, `{"error": "reply lost", "code": "internal"}`, http.StatusBadGateway)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	r := New(ts.URL)
	defer r.Close()

	if err := r.Put(storetest.MkProfile("doomed", nil, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("doomed", nil); err != nil {
		t.Fatalf("delete with lost replies should succeed via retries: %v", err)
	}
	if _, err := backend.Find("doomed", nil); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("backend still has the key: %v", err)
	}
}

// TestRemotePartialWriteSurfaces: a Put the backend performed but whose
// success was lost must surface an error — the client must NOT silently
// retry a non-idempotent write — and the store must hold exactly one copy.
func TestRemotePartialWriteSurfaces(t *testing.T) {
	backend := store.NewSharded(2)
	flaky := storetest.NewFlaky(backend, storetest.FlakyConfig{
		FailEvery:     1,
		PartialWrites: true,
	})
	r := newRemote(t, flaky)
	defer r.Close()

	err := r.Put(storetest.MkProfile("half", nil, 2))
	if err == nil {
		t.Fatal("partial write reported success")
	}
	if flaky.Injected("put") != 1 {
		t.Fatalf("injected %d put faults, want exactly 1 (no hidden retry)", flaky.Injected("put"))
	}
	got, ferr := backend.Find("half", nil)
	if ferr != nil {
		t.Fatalf("backend lost the partial write: %v", ferr)
	}
	if len(got) != 1 {
		t.Fatalf("backend holds %d copies, want 1", len(got))
	}
}

// TestRemoteReadRetriesAgainstFlakyBackend: backend-level transient read
// errors surface as 500s the client retries through; the deterministic
// every-other-read schedule guarantees the retry lands on a healthy call.
func TestRemoteReadRetriesAgainstFlakyBackend(t *testing.T) {
	backend := store.NewSharded(2)
	flaky := storetest.NewFlaky(backend, storetest.FlakyConfig{
		FailEvery: 2,
		Reads:     true,
	})
	r := newRemote(t, flaky, withCacheSize(0)) // every Find hits the backend
	defer r.Close()

	if err := r.Put(storetest.MkProfile("wobbly", nil, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := r.Find("wobbly", nil); err != nil {
			t.Fatalf("read %d failed through retries: %v", i, err)
		}
		if _, err := r.Keys(); err != nil {
			t.Fatalf("keys %d failed through retries: %v", i, err)
		}
	}
	if flaky.Injected("find")+flaky.Injected("keys") == 0 {
		t.Fatal("no read faults injected; the test proved nothing")
	}
}
