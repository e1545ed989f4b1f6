package storeclnt

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"synapse/internal/retry"
	"synapse/internal/telemetry"
)

// TestStatsIsViewOverRegistry: Stats() and a scrape of the shared registry
// must report the same numbers — the instruments are the single source.
func TestStatsIsViewOverRegistry(t *testing.T) {
	var fails int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fails++
		if fails <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"keys":[]}`))
	}))
	defer srv.Close()

	reg := telemetry.NewRegistry()
	r := New(srv.URL, WithMetrics(reg),
		withRetryPolicy(retry.Policy{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}))
	if _, err := r.Keys(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Retries != 2 {
		t.Fatalf("stats retries = %d, want 2", st.Retries)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "synapse_client_retries_total 2") {
		t.Errorf("registry disagrees with Stats():\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "synapse_client_cache_entries 0") {
		t.Errorf("cache gauge missing:\n%s", sb.String())
	}
}

func TestBreakerOpensCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	reg := telemetry.NewRegistry()
	r := New(srv.URL, WithMetrics(reg), withBreaker(2, time.Minute),
		withRetryPolicy(retry.Policy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}))
	_, err := r.Keys()
	if err == nil {
		t.Fatal("expected failure")
	}
	if st := r.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", st.BreakerOpens)
	}
	if got := reg.Counter("synapse_client_breaker_opens_total", "").Value(); got != 1 {
		t.Errorf("registered counter = %d, want 1", got)
	}
}
