package dist

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"synapse/internal/httpsvc"
	"synapse/internal/scenario"
	"synapse/internal/store"
	"synapse/internal/telemetry"
)

// Error codes carried in structured error responses, alongside the shared
// httpsvc codes (invalid, internal, overloaded, draining, too_large). The
// code, not the message, is the contract: HTTPWorker rebuilds the sentinel
// errors from them.
const (
	CodeNoSession = "no_session"
	CodeShardKey  = "shard_key"
)

// Request body limits, applied after gunzip. A compile request carries the
// spec's resolved profiles, each bounded by the store's document limit; an
// execute request carries one chunk of jobs — a whole shard when chunking
// is disabled, about 40 bytes per job.
const (
	maxCompileBody = 4 * store.MaxDocSize
	maxExecuteBody = 4 * store.MaxDocSize
)

// outcomesPerLine is the outcome count of each NDJSON execute response line.
const outcomesPerLine = 64

// HealthResponse is the /v1/healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Sessions int    `json:"sessions"`
	httpsvc.Health
}

// ServerConfig tunes a worker server.
type ServerConfig struct {
	httpsvc.Config
	// Workers bounds the emulation fan-out per execute request
	// (0 = GOMAXPROCS).
	Workers int
	// MaxSessions bounds held compile sessions; the oldest is evicted
	// past the cap (0 = 4). Coordinators recover via no_session.
	MaxSessions int
}

// WorkerServer serves the worker protocol over HTTP:
//
//	POST /v1/compile   compile a session (CompileRequest -> CompileResponse)
//	POST /v1/execute   execute one chunk (ExecuteRequest -> NDJSON StreamChunk lines)
//	GET  /v1/healthz   liveness + admission counters + build identity
//	GET  /v1/metrics   Prometheus text exposition (RED + worker series)
//
// It follows the httpsvc service conventions: every data-path request
// passes admission control (both routes may queue at capacity) and the RED
// middleware, errors carry structured codes, and Shutdown drains
// gracefully — new requests shed with 503/draining while in-flight shards
// finish.
type WorkerServer struct {
	*httpsvc.Server
	local *LocalWorker

	jobsRun   *telemetry.Counter
	chunksRun *telemetry.Counter
	specRun   *telemetry.Counter
}

// NewServer builds a worker server around an in-process worker core.
func NewServer(cfg ServerConfig) *WorkerServer {
	s := &WorkerServer{
		local: &LocalWorker{name: "server", workers: cfg.Workers, sessions: newSessions(cfg.MaxSessions)},
	}
	s.Server = httpsvc.New("dist", cfg.Config, s.handleHealthz)
	reg := s.Metrics()
	s.jobsRun = reg.Counter("synapse_dist_worker_jobs_total",
		"Replay jobs this worker executed.")
	s.chunksRun = reg.Counter("synapse_dist_worker_chunks_total",
		"Job chunks (execute requests) this worker ran.")
	s.specRun = reg.Counter("synapse_dist_worker_speculative_total",
		"Chunks this worker ran as speculative straggler re-executions.")
	reg.GaugeFunc("synapse_dist_worker_sessions",
		"Compile sessions currently held.",
		func() float64 { return float64(s.local.sessions.len()) })
	s.Handle("POST /v1/compile", httpsvc.Queue, s.handleCompile)
	s.Handle("POST /v1/execute", httpsvc.Queue, s.handleExecute)
	return s
}

// codeOf maps a worker error onto its structured code. A job the session
// cannot resolve is the request's fault, like any other invalid request.
func codeOf(err error) string {
	switch {
	case errors.Is(err, ErrNoSession):
		return CodeNoSession
	case errors.Is(err, ErrShardKey):
		return CodeShardKey
	case errors.Is(err, ErrInvalid), errors.Is(err, scenario.ErrInvalidJob):
		return httpsvc.CodeInvalid
	}
	return httpsvc.CodeInternal
}

// writeError maps worker errors onto structured responses.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	code := codeOf(err)
	switch code {
	case CodeNoSession:
		status = http.StatusNotFound
	case CodeShardKey:
		status = http.StatusConflict
	case httpsvc.CodeInvalid:
		status = http.StatusBadRequest
	}
	httpsvc.WriteError(w, r, status, code, err.Error())
}

func (s *WorkerServer) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if !httpsvc.DecodeJSON(w, r, maxCompileBody, &req) {
		return
	}
	sess, err := s.local.sessions.compile(r.Context(), &req, s.local.workers)
	if err != nil {
		writeError(w, r, err)
		return
	}
	s.Logger().Info("session compiled",
		slog.String("session", req.Session),
		slog.Int("workloads", len(req.Spec.Workloads)),
		slog.Int("shards", req.Shards))
	httpsvc.WriteJSON(w, r, http.StatusOK, CompileResponse{Session: req.Session, Seed: sess.runner.Seed()})
}

func (s *WorkerServer) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if !httpsvc.DecodeJSON(w, r, maxExecuteBody, &req) {
		return
	}
	sess, err := s.local.sessions.lookup(&req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	s.chunksRun.Inc()
	if req.Speculative {
		s.specRun.Inc()
	}
	// The chunk runs whole before the status goes out, so every failure
	// is a real HTTP status. The outcomes then go out as NDJSON lines of
	// outcomesPerLine each and a terminal done line.
	outs, err := sess.runner.ExecuteJobs(r.Context(), req.Jobs)
	if err != nil {
		writeError(w, r, err)
		return
	}
	s.jobsRun.Add(int64(len(outs)))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for a := 0; a < len(outs); a += outcomesPerLine {
		if err := enc.Encode(StreamChunk{Outcomes: outs[a:min(a+outcomesPerLine, len(outs))]}); err != nil {
			return
		}
	}
	_ = enc.Encode(StreamChunk{Done: true, N: len(outs)})
}

func (s *WorkerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	httpsvc.WriteJSON(w, r, http.StatusOK, HealthResponse{
		Status:   status,
		Sessions: s.local.sessions.len(),
		Health:   s.Health(),
	})
}
