package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"synapse/internal/httpsvc"
	"synapse/internal/retry"
	"synapse/internal/scenario"
)

// HTTPWorker drives one synapse-worker daemon over the wire protocol. It
// performs single attempts — retry discipline lives in the coordinator's
// policy, which also decides when the worker is dead — but it does the
// error translation: structured codes come back as the package's sentinel
// errors, and shed responses carry their Retry-After hint for the backoff.
type HTTPWorker struct {
	base string
	hc   *http.Client
}

// NewHTTPWorker returns a client for the worker daemon at base (e.g.
// "http://host:9191"). hc nil uses a client with a 60s overall timeout —
// shard executions are real work, not metadata lookups.
func NewHTTPWorker(base string, hc *http.Client) *HTTPWorker {
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPWorker{base: strings.TrimRight(base, "/"), hc: hc}
}

// Name implements Worker: workers are named by their base URL.
func (w *HTTPWorker) Name() string { return w.base }

// Compile implements Worker.
func (w *HTTPWorker) Compile(ctx context.Context, req *CompileRequest) error {
	var resp CompileResponse
	if err := w.post(ctx, "/v1/compile", req, &resp); err != nil {
		return err
	}
	if resp.Seed != req.Spec.Seed {
		return fmt.Errorf("%w: worker %s compiled seed %d, coordinator has %d",
			ErrShardKey, w.base, resp.Seed, req.Spec.Seed)
	}
	return nil
}

// Execute resolves one chunk and returns its outcomes whole, in job
// order: a collector over ExecuteStream for callers that want the slice.
func (w *HTTPWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	outs := make([]*scenario.Outcome, 0, len(req.Jobs))
	err := w.ExecuteStream(ctx, req, func(batch []*scenario.Outcome) error {
		outs = append(outs, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// ExecuteStream implements Worker: it posts the chunk and hands each
// outcome batch of the NDJSON response to emit as it is decoded, so the
// chunk's result never materializes as one body on either side. A
// terminal done line is required — a response that ends without one
// (connection cut, worker died mid-chunk, not a stream at all) is an
// error, never a silently short result.
func (w *HTTPWorker) ExecuteStream(ctx context.Context, req *ExecuteRequest, emit func(outs []*scenario.Outcome) error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("dist: encode /v1/execute: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: /v1/execute: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("dist: %s /v1/execute: %w", w.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return w.decodeError("/v1/execute", resp)
	}
	dec := json.NewDecoder(resp.Body)
	streamed := 0
	for {
		var line StreamChunk
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return fmt.Errorf("dist: %s /v1/execute: stream truncated after %d outcomes (no done line)", w.base, streamed)
			}
			return fmt.Errorf("dist: %s /v1/execute: decode stream: %w", w.base, err)
		}
		switch {
		case line.Error != "":
			return w.sentinel(line.Code, fmt.Errorf("dist: %s /v1/execute: stream error: %s", w.base, line.Error))
		case line.Done:
			if line.N != streamed {
				return fmt.Errorf("dist: %s /v1/execute: stream done line says %d outcomes, received %d", w.base, line.N, streamed)
			}
			return nil
		default:
			streamed += len(line.Outcomes)
			if err := emit(line.Outcomes); err != nil {
				return err
			}
		}
	}
}

// post sends one JSON request and decodes the JSON response, translating
// structured error bodies into sentinel errors.
func (w *HTTPWorker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return fmt.Errorf("dist: %s %s: %w", w.base, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return w.decodeError(path, resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: %s %s: decode response: %w", w.base, path, err)
	}
	return nil
}

// decodeError rebuilds a sentinel error from a structured error response,
// attaching any Retry-After hint for the coordinator's backoff.
func (w *HTTPWorker) decodeError(path string, resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	er, wait := httpsvc.ReadError(resp.Header, data)
	base := fmt.Errorf("dist: %s %s: HTTP %d: %s", w.base, path, resp.StatusCode, er.Error)
	return retry.After(w.sentinel(er.Code, base), wait)
}

// sentinel rebuilds the package sentinel for a structured error code, from
// a status body or an in-band stream error line alike.
func (w *HTTPWorker) sentinel(code string, base error) error {
	switch code {
	case CodeNoSession:
		return fmt.Errorf("%w: %v", ErrNoSession, base)
	case CodeShardKey:
		return fmt.Errorf("%w: %v", ErrShardKey, base)
	case httpsvc.CodeInvalid:
		return fmt.Errorf("%w: %v", ErrInvalid, base)
	}
	return base
}
