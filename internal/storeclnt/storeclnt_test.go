package storeclnt

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/profile"
	"synapse/internal/retry"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
)

// newRemote spins up an in-process synapsed over a sharded backend and
// returns a client pointed at it.
func newRemote(t *testing.T, backend store.Store, opts ...Option) *Remote {
	t.Helper()
	ts := httptest.NewServer(storesrv.New(backend, storesrv.Config{}))
	t.Cleanup(ts.Close)
	return New(ts.URL, opts...)
}

// The whole point: Remote passes the exact same conformance suite as the
// in-process backends, including concurrency under -race and sentinel-error
// round-tripping through the HTTP layer.
func TestRemoteConformance(t *testing.T) {
	storetest.Run(t, storetest.Factory{
		New: func(t *testing.T) store.Store {
			return newRemote(t, store.NewSharded(4))
		},
		NewWithLimit: func(t *testing.T, limit int64) store.Store {
			return newRemote(t, store.NewShardedWithLimit(4, limit))
		},
	})
}

// countingHandler wraps the service and counts full-body Find responses
// versus 304 revalidations.
type countingHandler struct {
	inner      http.Handler
	full, hits int32
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/profiles" {
		rec := httptest.NewRecorder()
		c.inner.ServeHTTP(rec, r)
		if rec.Code == http.StatusNotModified {
			atomic.AddInt32(&c.hits, 1)
		} else if rec.Code == http.StatusOK {
			atomic.AddInt32(&c.full, 1)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
		return
	}
	c.inner.ServeHTTP(w, r)
}

func TestCacheRevalidatesInsteadOfRefetching(t *testing.T) {
	ch := &countingHandler{inner: storesrv.New(store.NewSharded(4), storesrv.Config{})}
	ts := httptest.NewServer(ch)
	defer ts.Close()
	r := New(ts.URL)
	defer r.Close()

	if err := r.Put(storetest.MkProfile("hot", nil, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		set, err := r.Find("hot", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 1 || len(set[0].Samples) != 5 {
			t.Fatalf("find %d wrong: %d profiles", i, len(set))
		}
	}
	if got := atomic.LoadInt32(&ch.full); got != 1 {
		t.Errorf("full-body fetches = %d, want 1 (cache should revalidate)", got)
	}
	if got := atomic.LoadInt32(&ch.hits); got != 4 {
		t.Errorf("304 revalidations = %d, want 4", got)
	}

	// A write through this client invalidates the entry: the next read is a
	// full fetch again and sees the new profile.
	if err := r.Put(storetest.MkProfile("hot", nil, 7)); err != nil {
		t.Fatal(err)
	}
	set, err := r.Find("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("after second put: %d profiles, want 2", len(set))
	}
	if got := atomic.LoadInt32(&ch.full); got != 2 {
		t.Errorf("full-body fetches after invalidation = %d, want 2", got)
	}
}

// A put through ANOTHER client (different process in production) bumps the
// server generation, so this client's revalidation notices and refetches —
// the cache can never serve stale data past one round trip.
func TestCacheCrossClientInvalidation(t *testing.T) {
	backend := store.NewSharded(4)
	ts := httptest.NewServer(storesrv.New(backend, storesrv.Config{}))
	defer ts.Close()
	a, b := New(ts.URL), New(ts.URL)
	defer a.Close()
	defer b.Close()

	if err := a.Put(storetest.MkProfile("shared", nil, 1)); err != nil {
		t.Fatal(err)
	}
	if set, err := b.Find("shared", nil); err != nil || len(set) != 1 {
		t.Fatalf("b first find: %v %d", err, len(set))
	}
	if err := a.Put(storetest.MkProfile("shared", nil, 2)); err != nil {
		t.Fatal(err)
	}
	set, err := b.Find("shared", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Errorf("b sees %d profiles after a's write, want 2 (stale cache)", len(set))
	}
}

// gate delays Find responses until released so concurrent Finds pile up.
type gate struct {
	inner   http.Handler
	release chan struct{}
	finds   int32
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/profiles" {
		atomic.AddInt32(&g.finds, 1)
		<-g.release
	}
	g.inner.ServeHTTP(w, r)
}

func TestSingleflightDeduplicatesConcurrentFinds(t *testing.T) {
	backend := store.NewSharded(4)
	if err := backend.Put(storetest.MkProfile("dedup", nil, 3)); err != nil {
		t.Fatal(err)
	}
	g := &gate{inner: storesrv.New(backend, storesrv.Config{}), release: make(chan struct{})}
	ts := httptest.NewServer(g)
	defer ts.Close()
	r := New(ts.URL)
	defer r.Close()

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set, err := r.Find("dedup", nil)
			if err == nil && len(set) != 1 {
				err = errors.New("wrong result")
			}
			errs[i] = err
		}(i)
	}
	// Give the goroutines time to converge on the in-flight call, then
	// release the single wire fetch.
	time.Sleep(50 * time.Millisecond)
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(&g.finds); got != 1 {
		t.Errorf("wire fetches = %d, want 1 (singleflight)", got)
	}
}

func TestErrorsRoundTripTheWire(t *testing.T) {
	r := newRemote(t, store.NewShardedWithLimit(4, 4096))
	defer r.Close()
	if _, err := r.Find("absent", nil); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("remote Find = %v, want ErrNotFound", err)
	}
	if err := r.Put(storetest.MkProfile("big", nil, 100)); !errors.Is(err, store.ErrDocTooLarge) {
		t.Errorf("remote Put over limit = %v, want ErrDocTooLarge", err)
	}
	// PutTruncated degrades over the wire like Mem does locally.
	dropped, err := r.PutTruncated(storetest.MkProfile("big", nil, 100))
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("remote PutTruncated dropped nothing")
	}
}

func TestPutBatch(t *testing.T) {
	backend := store.NewShardedWithLimit(4, 4096)
	r := newRemote(t, backend)
	defer r.Close()
	outcomes, err := r.PutBatch([]*profile.Profile{
		storetest.MkProfile("a", nil, 1),
		storetest.MkProfile("big", nil, 100), // overflows the 4096B limit
		storetest.MkProfile("b", nil, 2),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0] != nil || outcomes[2] != nil {
		t.Errorf("good items failed: %v %v", outcomes[0], outcomes[2])
	}
	if !errors.Is(outcomes[1], store.ErrDocTooLarge) {
		t.Errorf("oversized item = %v, want ErrDocTooLarge", outcomes[1])
	}
	keys, err := r.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Errorf("keys after batch = %v", keys)
	}
}

// flaky fails the first n Find attempts with 500.
type flaky struct {
	inner http.Handler
	fails int32
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && atomic.AddInt32(&f.fails, -1) >= 0 {
		http.Error(w, `{"error":"transient","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestBoundedRetries(t *testing.T) {
	backend := store.NewSharded(2)
	if err := backend.Put(storetest.MkProfile("flaky", nil, 1)); err != nil {
		t.Fatal(err)
	}
	f := &flaky{inner: storesrv.New(backend, storesrv.Config{}), fails: 2}
	ts := httptest.NewServer(f)
	defer ts.Close()

	r := New(ts.URL) // DefaultRetries = 3
	defer r.Close()
	if _, err := r.Find("flaky", nil); err != nil {
		t.Fatalf("find should survive 2 transient failures with 3 retries: %v", err)
	}

	// With retries disabled the same fault is fatal.
	atomic.StoreInt32(&f.fails, 2)
	r2 := New(ts.URL, withRetryPolicy(retry.Policy{Attempts: 1}), withCacheSize(0))
	defer r2.Close()
	if _, err := r2.Find("flaky", nil); err == nil {
		t.Fatal("find with retries disabled should fail")
	}
}

func TestLRUEviction(t *testing.T) {
	r := newRemote(t, store.NewSharded(4), withCacheSize(2))
	defer r.Close()
	for _, cmd := range []string{"a", "b", "c"} {
		if err := r.Put(storetest.MkProfile(cmd, nil, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Find(cmd, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.CacheLen(); n != 2 {
		t.Errorf("cache holds %d keys, want 2 (LRU bound)", n)
	}
}
