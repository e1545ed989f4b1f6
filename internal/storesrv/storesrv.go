// Package storesrv is the HTTP profile-store service behind the synapsed
// daemon: it exposes any store.Store backend over a small JSON/REST API so
// many emulation hosts can share one profile database — the paper's
// "profile once, emulate anywhere" workflow (§4), where profiles live in a
// MongoDB service queried by every emulation host.
//
// API (all bodies JSON, gzip accepted and offered via the usual
// Content-Encoding/Accept-Encoding negotiation):
//
//	PUT    /v1/profiles            store one profile (?truncate=1 degrades to
//	                               the document limit instead of failing)
//	POST   /v1/profiles:batch      store many profiles, per-item results
//	GET    /v1/profiles?key=K      all profiles under a key, ETag'd by a
//	                               per-key generation counter (If-None-Match
//	                               returns 304 so clients can cache)
//	DELETE /v1/profiles?key=K      drop a key
//	GET    /v1/keys                list keys
//	GET    /v1/healthz             liveness probe
//	/debug/pprof/*                 optional (Config.Pprof) runtime profiling
//
// Errors round-trip as {"error": ..., "code": ...}; the storeclnt package
// maps codes back onto store.ErrNotFound / store.ErrDocTooLarge.
package storesrv

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/store"
)

// Error codes carried in structured error responses, alongside the shared
// httpsvc codes (invalid, internal, overloaded, draining, too_large).
// read_only rides on 503 and is terminal for writes.
const (
	CodeNotFound    = "not_found"
	CodeDocTooLarge = "doc_too_large"
	CodeReadOnly    = "read_only"
)

// Request body limits, applied after gunzip. A profile put with
// ?truncate=1 may exceed store.MaxDocSize, so the put limit leaves room
// above the document limit; a batch carries several profiles.
const (
	maxPutBody   = 2 * store.MaxDocSize
	maxBatchBody = 4 * store.MaxDocSize
)

// PutResponse answers a successful single put.
type PutResponse struct {
	Key        string `json:"key"`
	Dropped    int    `json:"dropped,omitempty"`
	Generation uint64 `json:"generation"`
}

// BatchRequest stores several profiles in one round trip.
type BatchRequest struct {
	Profiles []*profile.Profile `json:"profiles"`
	Truncate bool               `json:"truncate,omitempty"`
}

// BatchItem is the per-profile outcome of a batch put.
type BatchItem struct {
	Key     string `json:"key,omitempty"`
	Dropped int    `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

// BatchResponse lists one item per submitted profile, in order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// KeysResponse lists the distinct keys in the backend.
type KeysResponse struct {
	Keys []string `json:"keys"`
}

// HealthResponse is the /v1/healthz body: liveness plus the shared
// admission counters and build block.
type HealthResponse struct {
	Status string `json:"status"` // "ok", "read_only", or "draining"
	httpsvc.Health
}

// Config tunes the service: the shared admission, telemetry and pprof
// settings plus the read-only degraded mode.
type Config struct {
	httpsvc.Config
	// ReadOnly starts the server in read-only degraded mode: writes are
	// shed with 503/read_only, reads proceed. Toggle later via SetReadOnly.
	ReadOnly bool
}

// Server serves a store.Store over HTTP. Construct with New; it implements
// http.Handler, so it can be mounted in tests (httptest.NewServer) or run
// standalone via Start/Shutdown, which closes the backend after the drain.
// Reads may wait in the admission queue at capacity; writes shed first.
type Server struct {
	*httpsvc.Server
	backend  store.Store
	readOnly atomic.Bool

	// gen counts mutations per key. GET responses carry the generation as
	// an ETag; remote clients revalidate their caches against it with
	// If-None-Match instead of re-downloading profile bodies. The epoch is
	// a per-boot nonce mixed into every ETag: counters restart at zero
	// when the daemon restarts, and without it a client cache primed in a
	// previous boot could collide with the fresh counter and wrongly
	// revalidate stale data against a persistent (file) backend.
	genMu sync.Mutex
	gen   map[string]uint64
	epoch string
}

// New wraps backend in an HTTP service.
func New(backend store.Store, cfg Config) *Server {
	nonce := make([]byte, 6)
	_, _ = rand.Read(nonce)
	s := &Server{
		backend: backend,
		gen:     map[string]uint64{},
		epoch:   hex.EncodeToString(nonce),
	}
	s.readOnly.Store(cfg.ReadOnly)
	s.Server = httpsvc.New("storesrv", cfg.Config, s.handleHealthz)
	s.CloseOnShutdown(backend)
	s.Metrics().GaugeFunc("synapse_admission_read_only",
		"1 while the server is in read-only degraded mode.",
		func() float64 { return httpsvc.BoolGauge(s.readOnly.Load()) })
	s.Handle("PUT /v1/profiles", httpsvc.Shed, s.writable(s.handlePut))
	s.Handle("GET /v1/profiles", httpsvc.Queue, s.handleFind)
	s.Handle("DELETE /v1/profiles", httpsvc.Shed, s.writable(s.handleDelete))
	s.Handle("POST /v1/profiles:batch", httpsvc.Shed, s.writable(s.handleBatch))
	s.Handle("GET /v1/keys", httpsvc.Queue, s.handleKeys)
	return s
}

// writable guards a write route: in read-only mode it is shed with
// 503/read_only while reads proceed normally.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly.Load() {
			s.Shed(w, r, http.StatusServiceUnavailable, CodeReadOnly, "server is read-only")
			return
		}
		h(w, r)
	}
}

// SetReadOnly toggles read-only degraded mode at runtime: writes are shed
// with 503/read_only while reads proceed normally.
func (s *Server) SetReadOnly(on bool) { s.readOnly.Store(on) }

// ReadOnly reports whether the server is in read-only degraded mode.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	switch {
	case s.Draining():
		status = "draining"
	case s.ReadOnly():
		status = "read_only"
	}
	httpsvc.WriteJSON(w, r, http.StatusOK, HealthResponse{Status: status, Health: s.Health()})
}

// generation returns the current mutation count for key.
func (s *Server) generation(key string) uint64 {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	return s.gen[key]
}

// bump increments and returns key's generation after a mutation.
func (s *Server) bump(key string) uint64 {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	s.gen[key]++
	return s.gen[key]
}

func (s *Server) etagFor(gen uint64) string { return fmt.Sprintf(`"%s-g%d"`, s.epoch, gen) }

// writeError maps backend errors onto structured responses. The code, not
// the message, is the contract: clients rebuild sentinel errors from it.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := http.StatusInternalServerError, httpsvc.CodeInternal
	switch {
	case errors.Is(err, store.ErrNotFound):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, store.ErrDocTooLarge):
		status, code = http.StatusRequestEntityTooLarge, CodeDocTooLarge
	}
	httpsvc.WriteError(w, r, status, code, err.Error())
}

func writeBadRequest(w http.ResponseWriter, r *http.Request, err error) {
	httpsvc.WriteError(w, r, http.StatusBadRequest, httpsvc.CodeInvalid, err.Error())
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	var p profile.Profile
	if !httpsvc.DecodeJSON(w, r, maxPutBody, &p) {
		return
	}
	if err := p.Validate(); err != nil {
		writeBadRequest(w, r, err)
		return
	}
	key := p.Key()
	var dropped int
	var err error
	if r.URL.Query().Get("truncate") == "1" {
		tr, ok := s.backend.(store.Truncator)
		if !ok {
			// Backends without a document limit cannot overflow; a
			// strict put is equivalent.
			err = s.backend.Put(&p)
		} else {
			dropped, err = tr.PutTruncated(&p)
		}
	} else {
		err = s.backend.Put(&p)
	}
	if err != nil {
		writeError(w, r, err)
		return
	}
	httpsvc.WriteJSON(w, r, http.StatusOK, PutResponse{Key: key, Dropped: dropped, Generation: s.bump(key)})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !httpsvc.DecodeJSON(w, r, maxBatchBody, &req) {
		return
	}
	resp := BatchResponse{Results: make([]BatchItem, len(req.Profiles))}
	for i, p := range req.Profiles {
		item := &resp.Results[i]
		if p == nil {
			item.Error, item.Code = "nil profile", httpsvc.CodeInvalid
			continue
		}
		if err := p.Validate(); err != nil {
			item.Error, item.Code = err.Error(), httpsvc.CodeInvalid
			continue
		}
		var perr error
		tr, isTr := s.backend.(store.Truncator)
		if req.Truncate && isTr {
			item.Dropped, perr = tr.PutTruncated(p)
		} else {
			perr = s.backend.Put(p)
		}
		if perr != nil {
			item.Error = perr.Error()
			switch {
			case errors.Is(perr, store.ErrDocTooLarge):
				item.Code = CodeDocTooLarge
			case errors.Is(perr, store.ErrNotFound):
				item.Code = CodeNotFound
			default:
				item.Code = httpsvc.CodeInternal
			}
			continue
		}
		item.Key = p.Key()
		s.bump(item.Key)
	}
	httpsvc.WriteJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleFind(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeBadRequest(w, r, errors.New("missing key parameter"))
		return
	}
	// Read the generation before the backend: if a put lands in between,
	// the response carries fresh data under a stale tag, which only costs
	// the client one redundant revalidation.
	gen := s.generation(key)
	etag := s.etagFor(gen)
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	command, tags := profile.ParseKey(key)
	set, err := s.backend.Find(command, tags)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("ETag", etag)
	httpsvc.WriteJSON(w, r, http.StatusOK, set)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeBadRequest(w, r, errors.New("missing key parameter"))
		return
	}
	command, tags := profile.ParseKey(key)
	if err := s.backend.Delete(command, tags); err != nil {
		writeError(w, r, err)
		return
	}
	s.bump(key)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.backend.Keys()
	if err != nil {
		writeError(w, r, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	httpsvc.WriteJSON(w, r, http.StatusOK, KeysResponse{Keys: keys})
}
