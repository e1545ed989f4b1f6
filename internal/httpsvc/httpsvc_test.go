package httpsvc

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/telemetry"
	"synapse/internal/testutil"
)

// newTestServer builds a scaffold whose healthz reports the shared fields.
func newTestServer(cfg Config) *Server {
	var s *Server
	s = New("svc", cfg, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, r, http.StatusOK, s.Health())
	})
	return s
}

func testLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

func serve(s http.Handler, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec
}

func errorCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body is not an envelope: %v: %q", err, rec.Body)
	}
	return er.Code
}

// hold parks one request in a blocking route until the returned release
// is called, so the server's only execution slot is deterministically taken.
func hold(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate, done := make(chan struct{}), make(chan struct{})
	s.Handle("POST /hold", Queue, func(http.ResponseWriter, *http.Request) { <-gate })
	go func() {
		defer close(done)
		serve(s, http.MethodPost, "/hold", nil)
	}()
	for inflight, _ := s.Counters(); inflight != 1; inflight, _ = s.Counters() {
		time.Sleep(time.Millisecond)
	}
	return func() { close(gate); <-done }
}

// TestFlushReachesClient: a handler that writes a line and flushes must
// get it to the client while it is still running — through the RED
// middleware's recorder, by type assertion and by ResponseController,
// which also reaches the connection through Unwrap.
func TestFlushReachesClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(Config{})
	step := make(chan struct{})
	s.Handle("GET /stream", Queue, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-step
		io.WriteString(w, "second\n")
		rc := http.NewResponseController(w)
		if err := rc.Flush(); err != nil {
			t.Errorf("ResponseController flush: %v", err)
		}
		// Reaching the connection's deadline needs Unwrap.
		if err := rc.SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Errorf("ResponseController write deadline: %v", err)
		}
		<-step
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer close(step)

	// Without the flushes nothing, not even the headers, reaches the client
	// until the handler returns; the timeout turns that hang into a failure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatalf("no response while the handler was still running: %v", err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	for _, want := range []string{"first\n", "second\n"} {
		if line, err := lines.ReadString('\n'); line != want {
			t.Fatalf("read %q (%v) while the handler was still running, want %q", line, err, want)
		}
		step <- struct{}{}
	}
}

func TestAdmissionAtCapacity(t *testing.T) {
	s := newTestServer(Config{MaxInFlight: 1, Queue: 1, RequestTimeout: 20 * time.Millisecond})
	s.Handle("GET /read", Queue, func(http.ResponseWriter, *http.Request) {})
	s.Handle("PUT /write", Shed, func(http.ResponseWriter, *http.Request) {})
	release := hold(t, s)

	// Shed routes refuse at once; Queue routes wait out the budget, then shed.
	for _, req := range []struct{ method, path string }{{"PUT", "/write"}, {"GET", "/read"}} {
		rec := serve(s, req.method, req.path, nil)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
			t.Errorf("%s %s at capacity = %d (Retry-After %q), want 429 with a hint",
				req.method, req.path, rec.Code, rec.Header().Get("Retry-After"))
		}
		if code := errorCode(t, rec); code != CodeOverloaded {
			t.Errorf("%s %s code = %q, want %q", req.method, req.path, code, CodeOverloaded)
		}
	}
	// Healthz and metrics bypass admission.
	for _, path := range []string{"/v1/healthz", "/v1/metrics"} {
		if rec := serve(s, http.MethodGet, path, nil); rec.Code != http.StatusOK {
			t.Errorf("%s at capacity = %d, want 200", path, rec.Code)
		}
	}
	var h Health
	_ = json.Unmarshal(serve(s, http.MethodGet, "/v1/healthz", nil).Body.Bytes(), &h)
	if h.InFlight != 1 || h.MaxInFlight != 1 || h.Queue != 1 || h.Shed != 2 || h.Build.GoVersion == "" {
		t.Errorf("health = %+v", h)
	}

	release()
	if rec := serve(s, http.MethodGet, "/read", nil); rec.Code != http.StatusOK {
		t.Errorf("read after release = %d, want 200", rec.Code)
	}
}

func TestQueuedRequestAdmittedOnRelease(t *testing.T) {
	s := newTestServer(Config{MaxInFlight: 1, Queue: 1, RequestTimeout: 5 * time.Second})
	s.Handle("GET /read", Queue, func(http.ResponseWriter, *http.Request) {})
	release := hold(t, s)
	queued := make(chan int)
	go func() { queued <- serve(s, http.MethodGet, "/read", nil).Code }()
	for len(s.queue) != 1 {
		time.Sleep(time.Millisecond)
	}
	release()
	if code := <-queued; code != http.StatusOK {
		t.Errorf("queued read = %d, want 200 once the slot freed", code)
	}
}

func TestDrainShedsDataPath(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(Config{})
	s.Handle("GET /read", Queue, func(http.ResponseWriter, *http.Request) {})
	var closed closeCounter
	s.CloseOnShutdown(&closed)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/v1/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
	if !s.Draining() || closed != 1 {
		t.Fatalf("after Shutdown: draining %v, closer closed %d times", s.Draining(), closed)
	}
	rec := serve(s, http.MethodGet, "/read", nil)
	if rec.Code != http.StatusServiceUnavailable || errorCode(t, rec) != CodeDraining {
		t.Errorf("read while draining = %d %s", rec.Code, rec.Body)
	}
	if rec := serve(s, http.MethodGet, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d", rec.Code)
	}
	if _, err := newTestServer(Config{}).Start("256.0.0.1:0"); err == nil {
		t.Error("Start on an invalid address succeeded")
	}
}

type closeCounter int

func (c *closeCounter) Close() error { *c++; return nil }

func TestRequestDeadline(t *testing.T) {
	s := newTestServer(Config{RequestTimeout: time.Minute})
	var deadline atomic.Bool
	s.Handle("GET /read", Queue, func(w http.ResponseWriter, r *http.Request) {
		_, ok := r.Context().Deadline()
		deadline.Store(ok)
	})
	serve(s, http.MethodGet, "/read", nil)
	if !deadline.Load() {
		t.Error("admitted request carries no deadline")
	}
}

// TestREDLabelsFromRegisteredRoutes: route labels are the registered
// paths, /debug/pprof, or "other"; every request is counted and logged.
func TestREDLabelsFromRegisteredRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logs bytes.Buffer
	s := newTestServer(Config{Metrics: reg, Pprof: true, Logger: testLogger(&logs)})
	s.Handle("GET /v1/things", Queue, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	for _, path := range []string{"/v1/things?key=k1", "/debug/pprof/", "/random/9f8e7d"} {
		serve(s, http.MethodGet, path, nil)
	}
	body := serve(s, http.MethodGet, "/v1/metrics", nil).Body.String()
	for _, series := range []string{
		`synapse_http_requests_total{route="/v1/things",method="GET",code="418"} 1`,
		`synapse_http_requests_total{route="/debug/pprof",method="GET",code="200"} 1`,
		`synapse_http_requests_total{route="other",method="GET",code="404"} 1`,
		`synapse_http_request_duration_seconds_count{route="/v1/things",method="GET"} 1`,
		`synapse_admission_draining 0`,
		`synapse_build_info{`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing %s in:\n%s", series, body)
		}
	}
	if strings.Contains(body, "9f8e7d") {
		t.Error("raw path leaked into a route label")
	}
	if !strings.Contains(logs.String(), `"key":"k1"`) || !strings.Contains(logs.String(), `"route":"/v1/things"`) {
		t.Errorf("request log lines incomplete:\n%s", logs.String())
	}
	if s.Metrics() != reg || s.Logger() == nil {
		t.Error("accessors do not return the configured registry and logger")
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{MaxInFlight: 4}, true},
		{Config{MaxInFlight: 4, Queue: 2}, true},
		{Config{Queue: 4}, false},
		{Config{MaxInFlight: -1}, false},
		{Config{MaxInFlight: 4, Queue: -2}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v.Validate() = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeJSONBoundsBodies(t *testing.T) {
	const limit = 1 << 10
	decode := func(body []byte, gz, chunked bool) (*httptest.ResponseRecorder, map[string]string) {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		if chunked {
			req.ContentLength = -1 // no declared length: only the reader's cut-off applies
		}
		rec := httptest.NewRecorder()
		var v map[string]string
		if DecodeJSON(rec, req, limit, &v) != (rec.Body.Len() == 0) {
			t.Fatalf("DecodeJSON result disagrees with the response written: %q", rec.Body)
		}
		return rec, v
	}
	big := []byte(`{"k":"` + strings.Repeat("a", 4*limit) + `"}`)
	for _, tc := range []struct {
		name        string
		body        []byte
		gz, chunked bool
		status      int
		code        string
	}{
		{"plain", []byte(`{"k":"v"}`), false, false, http.StatusOK, ""},
		{"gzip", gzipped(t, []byte(`{"k":"v"}`)), true, false, http.StatusOK, ""},
		{"declared oversize", big, false, false, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"chunked oversize", big, false, true, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"gzip bomb", gzipped(t, big), true, false, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"bad gzip", []byte("not gzip"), true, false, http.StatusBadRequest, CodeInvalid},
		{"bad json", []byte("{nope"), false, false, http.StatusBadRequest, CodeInvalid},
	} {
		rec, v := decode(tc.body, tc.gz, tc.chunked)
		if tc.code == "" {
			if rec.Body.Len() != 0 || v["k"] != "v" {
				t.Errorf("%s: decoded %v, response %q", tc.name, v, rec.Body)
			}
			continue
		}
		if rec.Code != tc.status || errorCode(t, rec) != tc.code {
			t.Errorf("%s: %d %s, want %d/%s", tc.name, rec.Code, rec.Body, tc.status, tc.code)
		}
	}
	if bomb := gzipped(t, big); len(bomb) >= limit {
		t.Fatalf("gzip bomb is %d bytes on the wire, want under the %d-byte limit", len(bomb), limit)
	}
}

func TestWriteJSONNegotiatesGzip(t *testing.T) {
	big := map[string]string{"k": strings.Repeat("v", gzipMin)}
	for i := 0; i < 3; i++ { // pooled writers must be reusable
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", "gzip, deflate")
		rec := httptest.NewRecorder()
		WriteJSON(rec, req, http.StatusCreated, big)
		if rec.Code != http.StatusCreated || rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("status %d encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		if err := json.NewDecoder(zr).Decode(&got); err != nil || got["k"] != big["k"] {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}
	// Small bodies, and clients that do not accept gzip, get plain JSON.
	for _, accept := range []string{"gzip", ""} {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", accept)
		rec := httptest.NewRecorder()
		WriteJSON(rec, req, http.StatusOK, []int{1})
		if rec.Header().Get("Content-Encoding") != "" || rec.Body.String() != "[1]\n" {
			t.Errorf("Accept-Encoding %q: encoding %q body %q", accept, rec.Header().Get("Content-Encoding"), rec.Body)
		}
	}
}

func TestReadError(t *testing.T) {
	envelope := []byte(`{"error":"svc: server is at capacity","code":"overloaded"}`)
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	for _, tc := range []struct {
		name, retryAfter string
		body             []byte
		want             ErrorResponse
		minWait, maxWait time.Duration
	}{
		{"delta-seconds", "3", envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 3 * time.Second, 3 * time.Second},
		{"http-date", future, envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 80 * time.Second, 90 * time.Second},
		{"past date", past, envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 0, 0},
		{"missing", "", envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 0, 0},
		{"garbage", "soon", envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 0, 0},
		{"negative", "-5", envelope, ErrorResponse{"svc: server is at capacity", CodeOverloaded}, 0, 0},
		{"not an envelope", "", []byte(" bad gateway\n"), ErrorResponse{Error: "bad gateway"}, 0, 0},
		{"envelope without message", "", []byte(`{"code":"x"}`), ErrorResponse{Error: `{"code":"x"}`}, 0, 0},
	} {
		h := http.Header{}
		if tc.retryAfter != "" {
			h.Set("Retry-After", tc.retryAfter)
		}
		er, wait := ReadError(h, tc.body)
		if er != tc.want || wait < tc.minWait || wait > tc.maxWait {
			t.Errorf("%s: got %+v wait %v, want %+v wait in [%v, %v]",
				tc.name, er, wait, tc.want, tc.minWait, tc.maxWait)
		}
	}
}
