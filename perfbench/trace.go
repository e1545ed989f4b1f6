package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/dist"
	"synapse/internal/scenario"
)

// The traced run records spans from outside the program: around the calls
// this benchmark makes into each layer, and around the seams the layers
// already expose (scenario.Executor, dist.Worker, the http.Client transport
// and the http.Handler on each side of the loopback services).

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is -1 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Unit   int32  `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths can call it freely.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// spanRef travels in a context (and across the loopback wire in a header)
// so a child span knows its parent and the unit it belongs to.
type spanRef struct{ unit, id int32 }

type spanKey struct{}

func withRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func refOf(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// begin opens a span named name under ref and returns its id.
func (t *tracer) begin(name string, ref spanRef) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: ref.id, Unit: ref.unit, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// start opens a span under the context's span and returns a context that
// makes it the parent of later spans.
func (t *tracer) start(ctx context.Context, name string) (context.Context, int32) {
	if t == nil {
		return ctx, -1
	}
	ref, ok := refOf(ctx)
	if !ok {
		ref = spanRef{unit: -1, id: -1}
	}
	id := t.begin(name, ref)
	return withRef(ctx, spanRef{unit: ref.unit, id: id}), id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSON writes the spans as one JSON array.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintln(w, "[")
	spans := t.snapshot()
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the part of [s.Start, s.End) that none of the children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s, children)
}

// covered is the length of the union of the children's intervals, clipped
// to s.
func covered(s span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	first := true
	for _, v := range iv {
		switch {
		case first:
			curLo, curHi, first = v[0], v[1], false
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if !first {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// liveTracer is the tracer the long-lived wrappers (transports and
// handlers, installed once at set-up) report to; nil between traced
// windows, so the same servers serve untraced and traced windows.
type liveTracer struct{ p atomic.Pointer[tracer] }

func (l *liveTracer) get() *tracer { return l.p.Load() }

const spanHeader = "X-Perfbench-Span"

// countingTransport is the outside-in seam on the client side of a
// loopback service: it counts GETs, those answered 304 and wire bytes,
// and forwards the caller's span to the server in a header. cur is the
// parent span for callers whose requests carry no span in their context
// (storeclnt's Put path uses its own background context).
type countingTransport struct {
	base http.RoundTripper
	live *liveTracer

	cur               atomic.Pointer[spanRef]
	gets, notModified atomic.Int64
	bytesOut, bytesIn atomic.Int64
}

func (c *countingTransport) setParent(r spanRef) { c.cur.Store(&r) }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.live.get() == nil {
		return c.base.RoundTrip(req)
	}
	ref, ok := refOf(req.Context())
	if cur := c.cur.Load(); !ok && cur != nil {
		ref, ok = *cur, true
	}
	if ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.unit, ref.id))
	}
	if req.Method == http.MethodGet {
		c.gets.Add(1)
	}
	if req.ContentLength > 0 {
		c.bytesOut.Add(req.ContentLength)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if req.Method == http.MethodGet && resp.StatusCode == http.StatusNotModified {
		c.notModified.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytesIn}
	return resp, nil
}

func (c *countingTransport) reset() {
	for _, v := range []*atomic.Int64{&c.gets, &c.notModified, &c.bytesOut, &c.bytesIn} {
		v.Store(0)
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedHandler is the outside-in seam on the server side: one span per
// request, named by name(r), parented by the client span in the header.
func tracedHandler(live *liveTracer, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := live.get()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		ref := spanRef{unit: -1, id: -1}
		if v := r.Header.Get(spanHeader); v != "" {
			if u, id, ok := strings.Cut(v, "/"); ok {
				un, err1 := strconv.Atoi(u)
				in, err2 := strconv.Atoi(id)
				if err1 == nil && err2 == nil {
					ref = spanRef{unit: int32(un), id: int32(in)}
				}
			}
		}
		id := tr.begin(name(r), ref)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// tracedExecutor wraps the scenario.Executor seam: it counts the calls
// (one per eager run, one per placement instant with fresh jobs in a
// cluster run) and opens one span per call, counted as emulator busy time.
type tracedExecutor struct {
	inner scenario.Executor
	tr    *tracer
	calls *int
}

func (e tracedExecutor) ExecuteJobs(ctx context.Context, jobs []scenario.Job) ([]*scenario.Outcome, error) {
	*e.calls++
	ctx, id := e.tr.start(ctx, "emulator.execute")
	defer e.tr.end(id)
	return e.inner.ExecuteJobs(ctx, jobs)
}

// tracedWorker wraps a dist.Worker and keeps its StreamWorker face, so the
// coordinator still streams.
type tracedWorker struct {
	inner *dist.HTTPWorker
	live  *liveTracer
}

func (w tracedWorker) Name() string { return w.inner.Name() }

func (w tracedWorker) Compile(ctx context.Context, req *dist.CompileRequest) error {
	tr := w.live.get()
	ctx, id := tr.start(ctx, "dist.compile")
	defer tr.end(id)
	return w.inner.Compile(ctx, req)
}

func (w tracedWorker) Execute(ctx context.Context, req *dist.ExecuteRequest) ([]*scenario.Outcome, error) {
	tr := w.live.get()
	ctx, id := tr.start(ctx, "dist.rpc")
	defer tr.end(id)
	return w.inner.Execute(ctx, req)
}

func (w tracedWorker) ExecuteStream(ctx context.Context, req *dist.ExecuteRequest, emit func([]*scenario.Outcome) error) error {
	tr := w.live.get()
	ctx, id := tr.start(ctx, "dist.rpc")
	defer tr.end(id)
	return w.inner.ExecuteStream(ctx, req, emit)
}
