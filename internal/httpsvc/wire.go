package httpsvc

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Error codes every service shares. Services add their own data codes
// (storesrv's not_found, dist's no_session, ...); the code, not the
// message, is the contract clients rebuild sentinel errors from.
const (
	CodeInvalid    = "invalid"    // 400: malformed request
	CodeInternal   = "internal"   // 500
	CodeOverloaded = "overloaded" // 429: shed at capacity, retry after the hint
	CodeDraining   = "draining"   // 503: shutting down
	CodeTooLarge   = "too_large"  // 413: request body past the route's limit
)

// ErrorResponse is the wire form of a failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// gzipMin is the smallest response worth compressing: below it the gzip
// framing and a compressor's ~800 KB of deflate state cost more than they
// save.
const gzipMin = 1 << 10

// gzipWriters recycles response compressors, since a fresh gzip.Writer
// allocates its deflate state. It is a buffered channel rather than a
// sync.Pool: it retains no more writers than responses were compressed at
// once, capped at GOMAXPROCS, where a sync.Pool can strand an idle writer
// in every P's private slot.
var gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))

// WriteJSON sends v as JSON, gzip-compressed when the client accepts it and
// the body is at least gzipMin bytes.
func WriteJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	data, _ := json.Marshal(v) // wire types always marshal
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	if len(data) < gzipMin || !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.WriteHeader(status)
		_, _ = w.Write(data)
		return
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(status)
	var zw *gzip.Writer
	select {
	case zw = <-gzipWriters:
		zw.Reset(w)
	default:
		zw = gzip.NewWriter(w)
	}
	_, _ = zw.Write(data)
	_ = zw.Close()
	zw.Reset(io.Discard) // drop the reference to w before pooling
	select {
	case gzipWriters <- zw:
	default: // GOMAXPROCS writers already idle
	}
}

// WriteError sends the structured error envelope.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	WriteJSON(w, r, status, ErrorResponse{Error: msg, Code: code})
}

// DecodeJSON decodes the request's JSON body into v. A body sent with
// Content-Encoding: gzip is gunzipped first, and the limit applies to the
// inflated bytes, so a small compressed body cannot expand without bound.
// On failure it writes the error — 413/too_large past limit, 400/invalid
// otherwise — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := decodeBody(w, r, limit, v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		WriteError(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit))
	default:
		WriteError(w, r, http.StatusBadRequest, CodeInvalid, "decode request: "+err.Error())
	}
	return false
}

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit} // refuse before buffering any of it
	}
	body := r.Body
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return fmt.Errorf("bad gzip body: %w", err)
		}
		defer zr.Close()
		body = zr
	}
	return json.NewDecoder(http.MaxBytesReader(w, body, limit)).Decode(v)
}

// ReadError parses a failed response on the client side: the error
// envelope (a body that is not one becomes the message, with no code) and
// the Retry-After hint in delta-seconds or HTTP-date form (0 when absent,
// past or unparseable).
func ReadError(h http.Header, body []byte) (ErrorResponse, time.Duration) {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		er = ErrorResponse{Error: strings.TrimSpace(string(body))}
	}
	v := h.Get("Retry-After")
	if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
		return er, time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		return er, max(time.Until(at), 0)
	}
	return er, 0
}
