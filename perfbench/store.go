package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/emulator"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/storeclnt"
	"synapse/internal/storesrv"
)

// storeClients is the profile-emulate client count.
const storeClients = 2

// emulateOn are the machines each profile is emulated on: the profiling
// machine first (the fidelity check), then two others.
var emulateOn = []string{"thinkie", "stampede", "comet"}

// storeBench runs profile-emulate: the paper's profile once, emulate
// anywhere loop through a loopback synapsed.
type storeBench struct {
	seed    uint64
	backend *store.Sharded
	srv     *storesrv.Server
	hs      *http.Server
	done    chan struct{}
	live    *liveTracer // nil untraced
	cs      []*clientStore
	tr      *tracer
	n       int // active clients; the client-scaling window runs one

	baseShed int64

	mu     sync.Mutex
	errPct map[int32]float64
	docKB  []float64
}

func newStoreBench(ctx context.Context, seed uint64, traced bool) (*storeBench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &storeBench{
		seed:    seed,
		backend: store.NewSharded(0),
		done:    make(chan struct{}),
		n:       storeClients,
		errPct:  map[int32]float64{},
	}
	b.srv = storesrv.New(b.backend, storesrv.Config{})
	var h http.Handler = b.srv
	if traced {
		b.live = &liveTracer{}
		h = tracedHandler(b.live, func(r *http.Request) string {
			switch r.Method {
			case http.MethodPut:
				return "storesrv.put"
			case http.MethodGet:
				return "storesrv.find"
			}
			return "storesrv.other"
		}, b.srv)
	}
	b.hs = &http.Server{Handler: h}
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < storeClients; i++ {
		b.cs = append(b.cs, newClientStore(base, b.live))
	}
	// Warm-up units, from their own seed stream.
	for i := 0; i < 12; i++ {
		if _, err := b.runUnit(ctx, i%storeClients, mix(seed, "warm", uint64(i)), -1); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		b.after(i % storeClients)
	}
	return b, nil
}

func (b *storeBench) clients() int { return b.n }

func (b *storeBench) setTracer(tr *tracer) {
	b.tr = tr
	if b.live != nil {
		b.live.p.Store(tr)
	}
}

func (b *storeBench) unit(ctx context.Context, client, idx int) (int, error) {
	ref, _ := refOf(ctx)
	return b.runUnit(ctx, client, unitSeed(b.seed, client, idx), ref.unit)
}

// runUnit is one client cycle: profile a simulated mdsim under a fresh tag
// set and Put it through the Remote, then emulate it three times through
// the same Remote (Find + replay). id < 0 marks a warm-up unit.
func (b *storeBench) runUnit(ctx context.Context, client int, us uint64, id int32) (int, error) {
	tr := b.tr
	cs := b.cs[client]
	cs.ctx = ctx
	cs.tags = map[string]string{"steps": "100000", "unit": strconv.FormatUint(us, 16)}
	opts := core.ProfileOptions{Machine: emulateOn[0], SampleRate: 10, Seed: us, Jitter: true}
	var p *profile.Profile
	var err error
	if tr == nil {
		opts.Store = cs
		p, err = core.ProfileCommandString(ctx, "mdsim", cs.tags, opts)
	} else {
		// Traced: profile without a store, then Put, so each is timed.
		pctx, sid := tr.start(ctx, "core.profile")
		p, err = core.ProfileCommandString(pctx, "mdsim", cs.tags, opts)
		tr.end(sid)
		if err == nil {
			_, err = cs.PutTruncated(p)
			b.mu.Lock()
			b.docKB = append(b.docKB, float64(p.DocSize())/1024)
			b.mu.Unlock()
		}
	}
	if err != nil {
		return 0, err
	}
	for i, m := range emulateOn {
		eopts := core.EmulateOptions{Machine: m}
		var rep *emulator.Report
		if tr == nil {
			rep, err = core.Emulate(ctx, cs, "mdsim", cs.tags, eopts)
		} else {
			// Traced: core.Emulate's own two steps, Lookup then
			// EmulateProfile of the newest profile, each timed.
			var set profile.Set
			set, err = core.Lookup(ctx, cs, "mdsim", cs.tags)
			if err == nil {
				ectx, sid := tr.start(ctx, "emulator.emulate")
				rep, err = core.EmulateProfile(ectx, set[len(set)-1], eopts)
				tr.end(sid)
			}
		}
		if err != nil {
			return 0, err
		}
		if i > 0 {
			continue
		}
		f := cs.found
		if f == nil || f.ID != p.ID || len(f.Samples) != len(p.Samples) {
			return 0, errors.New("check: Find did not return the profile just Put")
		}
		if id >= 0 {
			e := 100 * math.Abs(float64(rep.Tx-p.Duration)) / float64(p.Duration)
			b.mu.Lock()
			b.errPct[id] = e
			b.mu.Unlock()
		}
	}
	return len(emulateOn), nil
}

// after drops the unit's profile from the server's backend, outside the
// unit's clock, so the store's size does not grow with throughput.
func (b *storeBench) after(client int) {
	cs := b.cs[client]
	_ = b.backend.Delete("mdsim", cs.tags)
}

func (b *storeBench) verify(context.Context, *windowResult) {}

// ratio measures storeclnt.client_scaling: ops/s with two clients against
// one.
func (b *storeBench) ratio(ctx context.Context, d time.Duration, untraced *windowResult) (string, float64) {
	b.n = 1
	one := runWindow(ctx, 1, d, nil, b.unit, b.after, ratioPhase)
	b.n = storeClients
	return "storeclnt.client_scaling", untraced.emulationsPerSec() / one.emulationsPerSec()
}

func (b *storeBench) resetCounters() {
	for _, cs := range b.cs {
		cs.counter.reset()
		cs.baseRetries = cs.remote.Stats().Retries
	}
	_, b.baseShed = b.srv.Counters()
}

func (b *storeBench) layerMetrics(res *windowResult, spans []span) map[string]float64 {
	m := map[string]float64{}
	byName := groupByName(spans)
	put, find := sortedMillis(byName["storeclnt.put"]), sortedMillis(byName["storeclnt.find"])
	m["storeclnt.put_ms_p50"], _ = median(put)
	m["storeclnt.put_ms_p99"] = tailOrMissing(put, 0.99)
	m["storeclnt.find_ms_p50"], _ = median(find)
	m["storeclnt.find_ms_p99"] = tailOrMissing(find, 0.99)
	m["storesrv.put_handler_ms_p50"], _ = median(sortedMillis(byName["storesrv.put"]))
	m["storesrv.find_handler_ms_p50"], _ = median(sortedMillis(byName["storesrv.find"]))
	var gets, notMod, wire, retries int64
	for _, cs := range b.cs {
		gets += cs.counter.gets.Load()
		notMod += cs.counter.notModified.Load()
		wire += cs.counter.bytesIn.Load() + cs.counter.bytesOut.Load()
		retries += cs.remote.Stats().Retries - cs.baseRetries
	}
	if gets > 0 {
		m["storeclnt.revalidated_ratio"] = float64(notMod) / float64(gets)
	}
	if ops := len(put) + len(find); ops > 0 {
		m["storeclnt.wire_kb_per_op"] = float64(wire) / 1024 / float64(ops)
	}
	m["storeclnt.retries"] = float64(retries)
	_, shed := b.srv.Counters()
	m["storesrv.shed"] = float64(shed - b.baseShed)
	unitTime := sum(byName["unit"])
	if unitTime > 0 {
		m["storeclnt.share"] = float64(sum(byName["storeclnt.put"])+sum(byName["storeclnt.find"])) / float64(unitTime)
		m["emulator.share"] = float64(sum(byName["emulator.emulate"])) / float64(unitTime)
	}
	m["core.profile_ms_p50"], _ = median(sortedMillis(byName["core.profile"]))
	b.mu.Lock()
	m["profile.doc_kb"], _ = median(sortedCopy(b.docKB))
	b.mu.Unlock()
	m["emulator.busy_ms"] = medianByUnit(byName["emulator.emulate"])
	n := float64(len(res.units))
	if n > 0 {
		m["emulator.replays"] = float64(len(byName["emulator.emulate"])) / n
	}
	if k := len(byName["emulator.emulate"]); k > 0 {
		m["emulator.us_per_replay"] = float64(sum(byName["emulator.emulate"])) / 1e3 / float64(k)
	}
	return m
}

// errPctMedian is emulation_err_pct over a window's units.
func (b *storeBench) errPctMedian(res *windowResult) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var v []float64
	for _, u := range res.units {
		if e, ok := b.errPct[u.id]; ok && u.err == nil {
			v = append(v, e)
		}
	}
	med, _ := median(sortedCopy(v))
	return med
}

func (b *storeBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx)
	<-b.done
	for _, cs := range b.cs {
		cs.transport.CloseIdleConnections()
		_ = cs.remote.Close()
	}
}

// medianByUnit is the median over units of the spans' summed duration per
// unit, in ms; spans carry their unit id.
func medianByUnit(spans []span) float64 {
	per := map[int32]time.Duration{}
	for _, s := range spans {
		per[s.Unit] += s.dur()
	}
	v := make([]float64, 0, len(per))
	for _, d := range per {
		v = append(v, float64(d)/1e6)
	}
	med, _ := median(sortedCopy(v))
	return med
}

// clientStore is one closed-loop client's view of the store: the Remote,
// behind a store.Store that records the newest profile each Find returned
// (the Put/Find check) and, in the traced run, spans every Put and Find.
type clientStore struct {
	remote    *storeclnt.Remote
	transport *http.Transport
	counter   *countingTransport // nil untraced
	live      *liveTracer

	ctx         context.Context // the current unit's context
	tags        map[string]string
	found       *profile.Profile
	baseRetries int64
}

func newClientStore(base string, live *liveTracer) *clientStore {
	cs := &clientStore{live: live}
	cs.transport = http.DefaultTransport.(*http.Transport).Clone()
	cs.transport.MaxConnsPerHost = 1
	var rt http.RoundTripper = cs.transport
	if live != nil {
		cs.counter = &countingTransport{base: cs.transport, live: live}
		rt = cs.counter
	}
	cs.remote = storeclnt.New(base, storeclnt.WithHTTPClient(&http.Client{Transport: rt}))
	return cs
}

func (c *clientStore) tracer() *tracer {
	if c.live == nil {
		return nil
	}
	return c.live.get()
}

// span opens a span under ctx and points the transport's header at it
// (the Put path sends no context of its own).
func (c *clientStore) span(ctx context.Context, name string) (context.Context, int32) {
	tr := c.tracer()
	ctx, id := tr.start(ctx, name)
	if tr != nil {
		ref, _ := refOf(ctx)
		c.counter.setParent(ref)
	}
	return ctx, id
}

func (c *clientStore) PutTruncated(p *profile.Profile) (int, error) {
	_, id := c.span(c.ctx, "storeclnt.put")
	defer c.tracer().end(id)
	return c.remote.PutTruncated(p)
}

func (c *clientStore) FindCtx(ctx context.Context, command string, tags map[string]string) (profile.Set, error) {
	ctx, id := c.span(ctx, "storeclnt.find")
	set, err := c.remote.FindCtx(ctx, command, tags)
	c.tracer().end(id)
	c.found = nil
	if err == nil && len(set) > 0 {
		c.found = set[len(set)-1]
	}
	return set, err
}

func (c *clientStore) Put(p *profile.Profile) error { return c.remote.Put(p) }

func (c *clientStore) Find(command string, tags map[string]string) (profile.Set, error) {
	return c.FindCtx(context.Background(), command, tags)
}

func (c *clientStore) Keys() ([]string, error) { return c.remote.Keys() }

func (c *clientStore) Delete(command string, tags map[string]string) error {
	return c.remote.Delete(command, tags)
}

func (c *clientStore) Close() error { return c.remote.Close() }
