// Package httpsvc is the HTTP service scaffold shared by the synapsed
// profile service (internal/storesrv) and the synapse-worker daemon
// (internal/dist): admission control with a bounded queue, load shedding
// with a Retry-After hint, the RED middleware, graceful drain and the
// healthz fields every service reports, plus the JSON wire helpers in
// wire.go.
//
// A service builds a Server, registers its data-path routes with Handle —
// each route stating whether it may wait in the admission queue — and
// embeds the Server. GET /v1/healthz, GET /v1/metrics and (with
// Config.Pprof) /debug/pprof are registered here and bypass admission:
// an overloaded server that stops reporting its own overload is
// unobservable exactly when it matters.
package httpsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"synapse/internal/telemetry"
)

// Config is the service configuration both daemons share.
type Config struct {
	// MaxInFlight bounds concurrently-executing data-path requests
	// (0 = unbounded). At capacity, Queue routes wait in the admission
	// queue and Shed routes are refused with 429 and a Retry-After hint.
	MaxInFlight int
	// Queue is the admission-queue depth (0 = shed instead of queueing).
	Queue int
	// RequestTimeout is the server-side deadline applied to each admitted
	// request's context, and the bound on admission-queue waits (0 = none).
	RequestTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Metrics is the registry the server's instruments register into; it is
	// rendered at GET /v1/metrics in Prometheus text exposition. nil gets a
	// private registry, so metrics always work; pass a shared registry to
	// merge server and client series into one scrape.
	Metrics *telemetry.Registry
	// Logger receives one structured line per request (level DEBUG for
	// successes, WARN for 5xx/shed) plus lifecycle events. nil discards.
	Logger *slog.Logger
}

// Validate rejects admission settings no server can honour: negative
// bounds, or a queue without an in-flight bound to queue against.
func (c Config) Validate() error {
	if c.MaxInFlight < 0 || c.Queue < 0 {
		return errors.New("max-inflight and queue must be >= 0")
	}
	if c.Queue > 0 && c.MaxInFlight == 0 {
		return errors.New("queue requires max-inflight > 0")
	}
	return nil
}

// Admission is what a data-path route does when every execution slot is
// taken.
type Admission int

const (
	// Queue waits in the admission queue for a slot, bounded by the queue
	// depth and by RequestTimeout (one second when unset).
	Queue Admission = iota
	// Shed refuses at once with 429/overloaded. Writes shed first: they
	// never hold a queue slot that a read could use.
	Shed
)

// defaultQueueWait bounds how long a queued request may wait for an
// execution slot when no RequestTimeout is configured.
const defaultQueueWait = time.Second

// Health is the part of a /v1/healthz body every service reports: the
// admission counters operators watch when tuning -max-inflight and -queue,
// and the build block identifying exactly what binary is answering.
// Services embed it in their own response type, so the JSON stays flat.
type Health struct {
	InFlight    int64           `json:"inflight"`
	MaxInFlight int             `json:"max_inflight,omitempty"`
	Queue       int             `json:"queue,omitempty"`
	Shed        int64           `json:"shed"`
	Build       telemetry.Build `json:"build"`
}

// Server is the scaffold: a mux whose data-path routes pass admission
// control, wrapped in the RED middleware, with Start/Shutdown drain.
type Server struct {
	name  string // prefix of shed messages ("storesrv", "dist")
	mux   *http.ServeMux
	paths map[string]bool // registered paths: the route label set
	reg   *telemetry.Registry
	log   *slog.Logger
	build telemetry.Build

	sem     chan struct{} // execution slots; nil = unbounded
	queue   chan struct{} // waiter slots; nil = no queue
	timeout time.Duration

	draining atomic.Bool
	inflight atomic.Int64
	shed     atomic.Int64

	requests *telemetry.CounterVec   // by route, method, code
	latency  *telemetry.HistogramVec // by route, method
	shedVec  *telemetry.CounterVec   // by shed code

	httpSrv *http.Server
	closer  io.Closer // closed after the drain (CloseOnShutdown)
}

// New builds the scaffold for the service called name, answering
// GET /v1/healthz with healthz. Routes are added with Handle.
func New(name string, cfg Config, healthz http.HandlerFunc) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	s := &Server{
		name:    name,
		mux:     http.NewServeMux(),
		paths:   map[string]bool{},
		reg:     reg,
		log:     log,
		build:   telemetry.BuildInfo(),
		timeout: cfg.RequestTimeout,
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
		if cfg.Queue > 0 {
			s.queue = make(chan struct{}, cfg.Queue)
		}
	}
	s.requests = reg.CounterVec("synapse_http_requests_total",
		"HTTP requests served, by route, method and status code.",
		"route", "method", "code")
	s.latency = reg.HistogramVec("synapse_http_request_duration_seconds",
		"HTTP request latency in seconds, by route and method.",
		nil, "route", "method")
	s.shedVec = reg.CounterVec("synapse_admission_shed_total",
		"Requests refused by admission control, by shed code.",
		"code")
	reg.GaugeFunc("synapse_http_inflight_requests",
		"Requests currently executing (admission-controlled data path).",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("synapse_admission_queue_depth",
		"Requests currently parked in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("synapse_admission_draining",
		"1 while the server is draining for shutdown.",
		func() float64 { return BoolGauge(s.draining.Load()) })
	reg.GaugeVec("synapse_build_info",
		"Build metadata; the value is always 1.",
		"version", "go_version", "revision").
		With(s.build.Version, s.build.GoVersion, s.build.Revision).Set(1)

	s.bypass("GET /v1/healthz", healthz)
	s.bypass("GET /v1/metrics", reg.Handler())
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// BoolGauge renders a flag as a gauge value.
func BoolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// bypass registers a route that skips admission control.
func (s *Server) bypass(pattern string, h http.Handler) {
	s.paths[pathOf(pattern)] = true
	s.mux.Handle(pattern, h)
}

// pathOf strips the method from a "METHOD /path" mux pattern.
func pathOf(pattern string) string { return pattern[strings.IndexByte(pattern, ' ')+1:] }

// Handle registers h for pattern ("METHOD /path") on the data path: every
// request first passes admission — adm decides whether it may queue at
// capacity — then runs under the configured server-side deadline. Routes
// are registered before the server starts serving.
func (s *Server) Handle(pattern string, adm Admission, h http.HandlerFunc) {
	s.paths[pathOf(pattern)] = true
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r, adm) {
			return // shed; response already written
		}
		if s.sem != nil {
			defer func() { <-s.sem }()
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	})
}

// admit reserves an execution slot, queueing Queue routes briefly when the
// server is saturated. False means the request was shed and the response
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, adm Admission) bool {
	if s.draining.Load() {
		s.Shed(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return false
	}
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if adm == Queue && s.await(r) {
		return true
	}
	s.Shed(w, r, http.StatusTooManyRequests, CodeOverloaded, "server is at capacity")
	return false
}

// await parks a request in the admission queue until an execution slot
// frees up, the caller gives up, or the wait budget burns down. True means
// a slot was acquired.
func (s *Server) await(r *http.Request) bool {
	if s.queue == nil {
		return false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return false // queue full too
	}
	defer func() { <-s.queue }()
	wait := s.timeout
	if wait <= 0 {
		wait = defaultQueueWait
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	case <-t.C:
		return false
	}
}

// Shed refuses a request with a structured error and a Retry-After hint,
// counting it by code. Services call it for their own degraded modes.
func (s *Server) Shed(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	s.shed.Add(1)
	s.shedVec.With(code).Inc()
	w.Header().Set("Retry-After", "1")
	WriteError(w, r, status, code, s.name+": "+msg)
}

// ServeHTTP implements http.Handler. Every request — admitted, shed,
// bypassed or unrouted — flows through the RED middleware: the request
// counter, the latency histogram, and one structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &recorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	route := s.route(r.URL.Path)
	status := rec.status
	if status == 0 {
		status = http.StatusOK // handler never wrote; net/http sends 200
	}
	s.requests.With(route, r.Method, strconv.Itoa(status)).Inc()
	s.latency.With(route, r.Method).Observe(elapsed.Seconds())
	level := slog.LevelDebug
	if status >= 500 || status == http.StatusTooManyRequests {
		level = slog.LevelWarn
	}
	attrs := []any{
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.Int("code", status),
		slog.Duration("duration", elapsed),
	}
	if key := r.URL.Query().Get("key"); key != "" {
		attrs = append(attrs, slog.String("key", key))
	}
	s.log.Log(r.Context(), level, "request", attrs...)
}

// route collapses a request path onto the bounded label set of registered
// paths, so a client probing random URLs cannot explode series cardinality.
func (s *Server) route(path string) string {
	switch {
	case s.paths[path]:
		return path
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// recorder captures the response status for the RED middleware; the body
// streams through untouched, and Flush reaches the connection so streamed
// responses are not held in net/http's buffer.
type recorder struct {
	http.ResponseWriter
	status int
}

func (rec *recorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *recorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

func (rec *recorder) Flush() {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (rec *recorder) Unwrap() http.ResponseWriter { return rec.ResponseWriter }

// Health snapshots the shared healthz fields.
func (s *Server) Health() Health {
	inflight, shed := s.Counters()
	return Health{
		InFlight:    inflight,
		MaxInFlight: cap(s.sem),
		Queue:       cap(s.queue),
		Shed:        shed,
		Build:       s.build,
	}
}

// Counters snapshots the overload counters (currently executing requests
// and total shed responses).
func (s *Server) Counters() (inflight, shed int64) {
	return s.inflight.Load(), s.shed.Load()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns the registry the server's instruments live in — the same
// one /v1/metrics renders.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Logger returns the server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.log }

// Start listens on addr (e.g. ":8181" or "127.0.0.1:0") and serves in the
// background, returning the bound address. Stop with Shutdown.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", s.name, addr, err)
	}
	s.httpSrv = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr(), nil
}

// CloseOnShutdown has Shutdown close c once in-flight requests drained.
func (s *Server) CloseOnShutdown(c io.Closer) { s.closer = c }

// Shutdown drains: new data-path requests shed with 503/draining while a
// Start'ed server stops accepting connections and waits (up to ctx) for
// in-flight requests to finish; then it closes the CloseOnShutdown closer.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
