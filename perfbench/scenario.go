package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/dist"
	"synapse/internal/scenario"
	"synapse/internal/store"
)

// Spec shapes. Every unit's spec seed (and so its arrivals and load
// jitter) derives from the workload seed and the unit's index, so no two
// units share a replay.
const (
	// replayClients × replayIterations instances per scenario-replay and
	// scenario-dist unit.
	replayClients    = 16
	replayIterations = 256
	// clusterArrivals per workload of a scenario-cluster unit (two
	// workloads): enough that a unit lasts tens of milliseconds, so its
	// tail is not one scheduler tick of the host.
	clusterArrivals = 12000
	// verifySample is how many scenario-replay/-cluster units are re-run
	// after the window to check their reports repeat byte for byte.
	verifySample = 8
)

// Profiles the scenario specs reference. mdLong (steps=100000 at 10 Hz)
// has 58 samples; mdShort and nap have 2.
var (
	mdLong  = profileSeed{command: "mdsim", tags: map[string]string{"steps": "100000"}, rate: 10}
	mdShort = profileSeed{command: "mdsim", tags: map[string]string{"steps": "10000"}, rate: 1}
	nap     = profileSeed{command: "sleep", tags: map[string]string{"seconds": "1"}, rate: 1}
)

type profileSeed struct {
	command string
	tags    map[string]string
	rate    float64
}

// seedProfiles profiles each command on a simulated thinkie into st, with
// profiling seeds drawn from the workload seed.
func seedProfiles(ctx context.Context, st store.Store, seed uint64, ps ...profileSeed) error {
	for i, p := range ps {
		_, err := core.ProfileCommandString(ctx, p.command, p.tags, core.ProfileOptions{
			Machine:    "thinkie",
			SampleRate: p.rate,
			Store:      st,
			Seed:       mix(seed, "profile", uint64(i)),
			Jitter:     true,
		})
		if err != nil {
			return fmt.Errorf("seed profile %s: %w", p.command, err)
		}
	}
	return nil
}

func replaySpec(unitSeed uint64, p profileSeed) []byte {
	load := 0.2 + 0.1*unitFloat(unitSeed)
	return fmt.Appendf(nil, `{
  "version": 1,
  "name": "perfbench-replay",
  "seed": %d,
  "workloads": [{
    "name": "md",
    "profile": {"command": %q, "tags": {"steps": %q}},
    "arrival": {"process": "closed", "clients": %d, "iterations": %d},
    "emulation": {"machine": "stampede", "load": %.4f, "load_jitter": 0.15}
  }]
}`, unitSeed, p.command, p.tags["steps"], replayClients, replayIterations, load)
}

// clusterSpec is the placement study: 32 nodes of two catalog machines,
// least-loaded placement with contention, two Poisson streams on
// 2-sample profiles, a node failure and recovery, 10 s timeline buckets.
func clusterSpec(unitSeed uint64) []byte {
	down := 100 + int(100*unitFloat(unitSeed))
	return fmt.Appendf(nil, `{
  "version": 1,
  "name": "perfbench-cluster",
  "seed": %d,
  "cluster": {
    "policy": "least_loaded",
    "contention": 0.5,
    "nodes": [
      {"name": "big", "machine": "stampede", "count": 16, "cores": 16},
      {"name": "small", "machine": "thinkie", "count": 16, "cores": 4}
    ]
  },
  "events": {
    "version": 1,
    "timeline": [
      {"at": "%ds", "kind": "node_down", "node": "big-3"},
      {"at": "%ds", "kind": "node_up", "node": "big-3"}
    ]
  },
  "timeline": {"bucket": "10s"},
  "workloads": [
    {
      "name": "md",
      "profile": {"command": "mdsim", "tags": {"steps": "10000"}},
      "arrival": {"process": "poisson", "rate": %g, "count": %d},
      "resources": {"cores": 4}
    },
    {
      "name": "nap",
      "profile": {"command": "sleep", "tags": {"seconds": "1"}},
      "arrival": {"process": "poisson", "rate": %g, "count": %d},
      "resources": {"cores": 1},
      "emulation": {"load": 0.1}
    }
  ]
}`, unitSeed, down, down+60, clusterMDRate, clusterArrivals, clusterNapRate, clusterArrivals)
}

// Arrival rates of the cluster workloads (per virtual second): enough to
// keep the pool busy and queueing around the node failure.
const (
	clusterMDRate  = 20.0
	clusterNapRate = 40.0
)

// unitOut is what a unit leaves for the after-window checks.
type unitOut struct {
	seed   uint64
	digest [32]byte
	// Counts the traced run reports.
	emulations, replays, execCalls int
	placements, rejections, killed int
	coord                          dist.Stats
}

// scenarioBench runs scenario-replay, scenario-cluster and scenario-dist:
// one unit is parse → run → encode, as synapse-sim does per run.
type scenarioBench struct {
	name     string
	seed     uint64
	st       store.Store
	spec     func(unitSeed uint64) []byte
	arrivals int
	cluster  bool
	workers  int // RunOptions.Workers; 0 is GOMAXPROCS
	tr       *tracer

	// scenario-dist only: the loopback fleet.
	fleet   []dist.Worker
	servers []*fleetServer
	live    *liveTracer

	mu   sync.Mutex
	outs map[int32]*unitOut
	// The local re-runs the dist check makes (dist.vs_local_ratio).
	localEmulations int
	localWall       time.Duration
}

func newScenarioBench(ctx context.Context, name string, seed uint64, traced bool) (*scenarioBench, error) {
	b := &scenarioBench{name: name, seed: seed, st: store.NewMem(), outs: map[int32]*unitOut{}}
	var profiles []profileSeed
	warm := 3 // set-up warm-up units, from their own seed stream
	switch name {
	case "scenario-replay":
		profiles = []profileSeed{mdLong}
		b.spec = func(s uint64) []byte { return replaySpec(s, mdLong) }
		b.arrivals = replayClients * replayIterations
	case "scenario-cluster":
		profiles = []profileSeed{mdShort, nap}
		b.spec = clusterSpec
		b.arrivals = 2 * clusterArrivals
		b.cluster = true
	case "scenario-dist":
		profiles = []profileSeed{mdShort}
		b.spec = func(s uint64) []byte { return replaySpec(s, mdShort) }
		b.arrivals = replayClients * replayIterations
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := seedProfiles(ctx, b.st, seed, profiles...); err != nil {
		return nil, err
	}
	if name == "scenario-dist" {
		if traced {
			b.live = &liveTracer{}
		}
		for i := 0; i < 2; i++ {
			fs, err := startFleetServer(b.live)
			if err != nil {
				b.close()
				return nil, err
			}
			b.servers = append(b.servers, fs)
			b.fleet = append(b.fleet, fs.client)
		}
	}
	for i := 0; i < warm; i++ {
		if _, err := b.runUnit(ctx, mix(seed, "warm", uint64(i)), -1); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// fleetServer is one in-process dist.WorkerServer on a loopback listener,
// and the HTTP worker client the coordinator reaches it through.
type fleetServer struct {
	ws        *dist.WorkerServer
	hs        *http.Server
	done      chan struct{}
	transport *http.Transport
	counter   *countingTransport // nil untraced
	client    dist.Worker
	baseJobs  int64 // jobsRun at the start of the traced window
}

func startFleetServer(live *liveTracer) (*fleetServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := dist.NewServer(dist.ServerConfig{Workers: 1})
	fs := &fleetServer{ws: ws, done: make(chan struct{})}
	var h http.Handler = ws
	fs.transport = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = fs.transport
	if live != nil {
		h = tracedHandler(live, func(r *http.Request) string {
			if strings.HasSuffix(r.URL.Path, "/execute") {
				return "dist.handler.execute"
			}
			return "dist.handler.other"
		}, ws)
		fs.counter = &countingTransport{base: fs.transport, live: live}
		rt = fs.counter
	}
	fs.hs = &http.Server{Handler: h}
	go func() {
		defer close(fs.done)
		_ = fs.hs.Serve(ln)
	}()
	hw := dist.NewHTTPWorker("http://"+ln.Addr().String(), &http.Client{Transport: rt, Timeout: 60 * time.Second})
	fs.client = hw
	if live != nil {
		fs.client = tracedWorker{inner: hw, live: live}
	}
	return fs, nil
}

func (fs *fleetServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = fs.hs.Shutdown(ctx)
	<-fs.done
	fs.transport.CloseIdleConnections()
}

// jobsRun is the worker's synapse_dist_worker_jobs_total.
func (fs *fleetServer) jobsRun() int64 {
	return fs.ws.Metrics().Counter("synapse_dist_worker_jobs_total", "").Value()
}

func (b *scenarioBench) clients() int { return 1 }

func (b *scenarioBench) setTracer(tr *tracer) {
	b.tr = tr
	if b.live != nil {
		b.live.p.Store(tr)
	}
}

func (b *scenarioBench) unit(ctx context.Context, client, idx int) (int, error) {
	ref, _ := refOf(ctx)
	out, err := b.runUnit(ctx, unitSeed(b.seed, client, idx), ref.unit)
	if err != nil {
		return 0, err
	}
	return out.emulations, nil
}

func (b *scenarioBench) after(int) {}

// runUnit runs one scenario unit and checks its report. id < 0 marks a
// warm-up unit, which is not recorded.
func (b *scenarioBench) runUnit(ctx context.Context, us uint64, id int32) (*unitOut, error) {
	tr := b.tr
	data := b.spec(us)
	sctx, sid := tr.start(ctx, "scenario.parse")
	spec, err := scenario.Parse(data)
	tr.end(sid)
	if err != nil {
		return nil, err
	}
	out := &unitOut{seed: us}
	opts := scenario.RunOptions{Workers: b.workers}
	var co *dist.Coordinator
	switch {
	case b.fleet != nil:
		sctx, sid = tr.start(ctx, "dist.coordinator")
		co, err = dist.NewCoordinator(sctx, spec, b.st, dist.Config{Workers: b.fleet})
		tr.end(sid)
		if err != nil {
			return nil, err
		}
		opts.Executor = co
		if tr != nil {
			opts.Executor = &tracedStream{inner: co, tr: tr, calls: &out.execCalls}
		}
	case tr != nil:
		// The traced run resolves and compiles through the entry points
		// scenario.Run uses internally, so each is timed on its own, and
		// hands Run the compiled runner behind the Executor seam.
		sctx, sid = tr.start(ctx, "scenario.resolve")
		_, err = scenario.ResolveProfiles(sctx, spec, b.st)
		tr.end(sid)
		if err != nil {
			return nil, err
		}
		sctx, sid = tr.start(ctx, "scenario.compile")
		runner, err := scenario.NewJobRunner(sctx, spec, b.st, b.workers)
		tr.end(sid)
		if err != nil {
			return nil, err
		}
		opts.Executor = tracedExecutor{inner: runner, tr: tr, calls: &out.execCalls}
	}
	sctx, sid = tr.start(ctx, "scenario.run")
	rep, err := scenario.Run(sctx, spec, b.st, opts)
	tr.end(sid)
	if err != nil {
		return nil, err
	}
	_, sid = tr.start(ctx, "scenario.encode")
	enc, err := json.MarshalIndent(rep, "", "  ")
	tr.end(sid)
	if err != nil {
		return nil, err
	}
	out.digest = sha256.Sum256(enc)
	out.emulations, out.replays = rep.Emulations, rep.Replays
	if rep.Cluster != nil {
		out.placements, out.rejections, out.killed = rep.Cluster.Placements, rep.Cluster.Rejections, rep.Killed
	}
	if co != nil {
		out.coord = co.Stats()
	}
	if err := b.check(rep); err != nil {
		return nil, err
	}
	if id >= 0 {
		b.mu.Lock()
		b.outs[id] = out
		b.mu.Unlock()
	}
	return out, nil
}

// check holds every unit to count conservation, and scenario-replay to
// one replay per emulation (jitter must defeat dedup).
func (b *scenarioBench) check(rep *scenario.Report) error {
	if rep.Emulations+rep.Dropped != b.arrivals {
		return fmt.Errorf("check: %d emulations + %d dropped != %d arrivals", rep.Emulations, rep.Dropped, b.arrivals)
	}
	if b.cluster {
		if rep.Cluster == nil {
			return errors.New("check: cluster run has no cluster report")
		}
		if rep.Cluster.Placements != rep.Emulations+rep.Killed {
			return fmt.Errorf("check: %d placements != %d emulations + %d killed", rep.Cluster.Placements, rep.Emulations, rep.Killed)
		}
	}
	if b.name == "scenario-replay" && rep.Replays != rep.Emulations {
		return fmt.Errorf("check: %d replays for %d emulations; dedup kicked in", rep.Replays, rep.Emulations)
	}
	return nil
}

// verify runs outside the timed window. scenario-dist re-runs every unit
// locally and requires the same report bytes; the other two re-run a
// sample of units and require them to repeat.
func (b *scenarioBench) verify(ctx context.Context, res *windowResult) {
	var ids []int
	for i, u := range res.units {
		if u.err == nil {
			ids = append(ids, i)
		}
	}
	if b.fleet == nil && len(ids) > verifySample {
		step := len(ids) / verifySample
		var sample []int
		for k := 0; k < verifySample; k++ {
			sample = append(sample, ids[k*step])
		}
		ids = sample
	}
	for _, i := range ids {
		u := &res.units[i]
		b.mu.Lock()
		want := b.outs[u.id]
		b.mu.Unlock()
		if want == nil {
			u.err = errors.New("check: unit left no output")
			continue
		}
		t0 := time.Now()
		got, err := b.rerunLocal(ctx, want.seed)
		if b.fleet != nil {
			b.localWall += time.Since(t0)
			b.localEmulations += want.emulations
		}
		switch {
		case err != nil:
			u.err = fmt.Errorf("check: re-run: %w", err)
		case got != want.digest:
			u.err = errors.New("check: re-run report differs")
		}
	}
}

// rerunLocal runs the unit's spec in process, with no executor, and
// returns the report digest.
func (b *scenarioBench) rerunLocal(ctx context.Context, us uint64) ([32]byte, error) {
	spec, err := scenario.Parse(b.spec(us))
	if err != nil {
		return [32]byte{}, err
	}
	rep, err := scenario.Run(ctx, spec, b.st, scenario.RunOptions{Workers: b.workers})
	if err != nil {
		return [32]byte{}, err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(enc), nil
}

func (b *scenarioBench) close() {
	for _, fs := range b.servers {
		fs.close()
	}
	b.servers = nil
}

// tracedStream wraps the coordinator behind the Executor seam and keeps
// its streaming face.
type tracedStream struct {
	inner *dist.Coordinator
	tr    *tracer
	calls *int
}

func (e *tracedStream) ExecuteJobs(ctx context.Context, jobs []scenario.Job) ([]*scenario.Outcome, error) {
	*e.calls++
	ctx, id := e.tr.start(ctx, "dist.execute")
	defer e.tr.end(id)
	return e.inner.ExecuteJobs(ctx, jobs)
}

func (e *tracedStream) ExecuteJobsStream(ctx context.Context, jobs []scenario.Job, sink func(int, []*scenario.Outcome) error) error {
	*e.calls++
	ctx, id := e.tr.start(ctx, "dist.execute")
	defer e.tr.end(id)
	return e.inner.ExecuteJobsStream(ctx, jobs, sink)
}

// ratio measures the outside-in ratio of the workload's ROADMAP anomaly
// after the untraced window: scenario.parallel_speedup against the same
// unit stream at Workers=1, or dist.vs_local_ratio against the local
// re-runs the dist check made.
func (b *scenarioBench) ratio(ctx context.Context, d time.Duration, untraced *windowResult) (string, float64) {
	switch b.name {
	case "scenario-replay":
		b.workers = 1
		serial := runWindow(ctx, 1, d, nil, b.unit, nil, ratioPhase)
		b.workers = 0
		return "scenario.parallel_speedup", untraced.emulationsPerSec() / serial.emulationsPerSec()
	case "scenario-dist":
		local := float64(b.localEmulations) / b.localWall.Seconds()
		return "dist.vs_local_ratio", untraced.emulationsPerSec() / local
	}
	return "", 0
}

// layerMetrics derives the scenario, cluster, emulator and dist metrics
// from the traced window.
func (b *scenarioBench) layerMetrics(res *windowResult, spans []span) map[string]float64 {
	m := map[string]float64{}
	byName := groupByName(spans)
	units := byName["unit"]
	perUnit := func(name string) float64 {
		return medianPerUnit(units, byName[name], nil)
	}
	m["scenario.parse_ms"] = perUnit("scenario.parse")
	m["scenario.encode_ms"] = perUnit("scenario.encode")
	m["scenario.resolve_ms"] = perUnit("scenario.resolve")
	m["scenario.compile_ms"] = perUnit("scenario.compile")
	if b.fleet != nil {
		m["scenario.resolve_ms"] = perUnit("dist.coordinator")
	}
	execName := "emulator.execute"
	if b.fleet != nil {
		execName = "dist.execute"
	}
	m["scenario.sched_fold_ms"] = medianPerUnit(byName["scenario.run"], byName[execName], selfTime)

	var emulations, replays, calls int
	var cs dist.Stats
	var first *unitOut
	for _, u := range res.units {
		b.mu.Lock()
		o := b.outs[u.id]
		b.mu.Unlock()
		if o == nil {
			continue
		}
		if first == nil {
			first = o
		}
		emulations += o.emulations
		replays += o.replays
		calls += o.execCalls
		cs.Jobs += o.coord.Jobs
		cs.RPCs += o.coord.RPCs
		cs.Chunks += o.coord.Chunks
		cs.Steals += o.coord.Steals
		cs.SpeculativeDiscards += o.coord.SpeculativeDiscards
		cs.RecomputedChunks += o.coord.RecomputedChunks
	}
	n := float64(len(res.units))
	if n == 0 || first == nil {
		return m
	}
	m["scenario.executor_calls"] = float64(calls) / n
	if emulations > 0 {
		m["scenario.memo_hit_ratio"] = 1 - float64(replays)/float64(emulations)
	}
	// Cluster counts of the first timed unit: fixed inputs, so they
	// repeat exactly for a seed.
	m["cluster.placements"] = float64(first.placements)
	m["cluster.rejections"] = float64(first.rejections)
	m["cluster.killed"] = float64(first.killed)

	if b.fleet == nil {
		busy := sum(byName["emulator.execute"])
		m["emulator.busy_ms"] = perUnit("emulator.execute")
		m["emulator.replays"] = float64(replays) / n
		if replays > 0 {
			m["emulator.us_per_replay"] = float64(busy) / 1e3 / float64(replays)
		}
		m["emulator.share"] = float64(busy) / float64(sum(units))
		return m
	}
	m["emulator.replays"] = float64(replays) / n
	m["dist.compile_ms"] = perUnit("dist.compile")
	rpcs := sortedMillis(byName["dist.rpc"])
	m["dist.rpc_ms_p50"], _ = median(rpcs)
	m["dist.rpc_ms_p90"] = tailOrMissing(rpcs, 0.9)
	m["dist.worker_handler_ms_p50"], _ = median(sortedMillis(byName["dist.handler.execute"]))
	wire := append(append([]span(nil), byName["dist.rpc"]...), byName["dist.compile"]...)
	m["dist.coord_self_ms"] = medianPerUnit(units, wire, selfTime)
	m["dist.rpcs"] = float64(cs.RPCs) / n
	m["dist.chunks"] = float64(cs.Chunks) / n
	m["dist.steals"] = float64(cs.Steals) / n
	m["dist.speculative_discards"] = float64(cs.SpeculativeDiscards) / n
	m["dist.recomputed_chunks"] = float64(cs.RecomputedChunks) / n
	var ran, bytes int64
	for _, fs := range b.servers {
		ran += fs.jobsRun() - fs.baseJobs
		bytes += fs.counter.bytesIn.Load() + fs.counter.bytesOut.Load()
	}
	if ran > 0 {
		m["dist.useful_ratio"] = float64(cs.Jobs) / float64(ran)
	}
	if emulations > 0 {
		m["dist.wire_kb_per_emulation"] = float64(bytes) / 1024 / float64(emulations)
	}
	return m
}

// resetCounters zeroes the fleet's wire counters and remembers the worker
// job counters, so the traced window's numbers cover it alone.
func (b *scenarioBench) resetCounters() {
	for _, fs := range b.servers {
		if fs.counter != nil {
			fs.counter.reset()
		}
		fs.baseJobs = fs.jobsRun()
	}
}

func groupByName(spans []span) map[string][]span {
	m := map[string][]span{}
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	for _, v := range m {
		sort.Slice(v, func(i, j int) bool { return v[i].Start < v[j].Start })
	}
	return m
}

// inside returns the spans of sorted (by start) that start within p.
func inside(p span, sorted []span) []span {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start >= p.Start })
	hi := lo
	for hi < len(sorted) && sorted[hi].Start < p.End {
		hi++
	}
	return sorted[lo:hi]
}

// medianPerUnit returns, in ms, the median over parents of f(parent,
// children inside it), or of the children's summed duration when f is nil.
// Parents and children are grouped by time, which is exact for a single
// closed-loop client.
func medianPerUnit(parents, children []span, f func(span, []span) time.Duration) float64 {
	if len(children) == 0 && f == nil {
		return 0
	}
	v := make([]float64, 0, len(parents))
	for _, p := range parents {
		kids := inside(p, children)
		var d time.Duration
		if f != nil {
			d = f(p, kids)
		} else {
			d = sum(kids)
		}
		v = append(v, float64(d)/1e6)
	}
	med, _ := median(sortedCopy(v))
	return med
}

func sum(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

func sortedMillis(spans []span) []float64 {
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = float64(s.dur()) / 1e6
	}
	sort.Float64s(v)
	return v
}

// tailOrMissing is tailPercentile with a missing tail as NaN, which the
// result table prints as missing.
func tailOrMissing(sorted []float64, q float64) float64 {
	v, ok := tailPercentile(sorted, q)
	if !ok {
		return math.NaN()
	}
	return v
}
