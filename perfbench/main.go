// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads in a single process, through the public entry points
// of the scenario engine, the distributed tier, the profile store service
// and the profile/emulate core, all against in-process loopback servers:
//
//	scenario-replay   parse → scenario.Run → encode, replay-bound
//	scenario-cluster  the same pipeline on a 32-node placement study
//	scenario-dist     the same pipeline through a 2-worker loopback fleet
//	profile-emulate   profile + Put, then 3× Find + emulate, 2 clients
//
// With -trace 0 it measures a closed-loop window with no tracing and
// prints the end-to-end metrics. With -trace 1 it measures an untraced
// window, then a traced one, and prints the per-layer metrics, the
// tracing overhead and the workload's outside-in ratio. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	go run . -workload scenario-replay -seed 1 -seconds 10 -trace 0
//
// See README.md for the metrics, the workloads and first numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// setups is how many times a -trace 0 run sets its workload up; setup_s
// is their median.
const setups = 5

// workloads names the benchmark's workloads, in report order.
var workloads = []string{"scenario-replay", "scenario-cluster", "scenario-dist", "profile-emulate"}

// metric is one reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"emulations_per_s", "1/s"},
	{"unit_ms_p50", "ms"},
	{"unit_ms_p90", "ms"},
	{"cpu_us_per_emulation", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a -trace 1 run. A layer the workload does
// not load reports 0.
var perLayer = []metric{
	{"scenario.parse_ms", "ms"},
	{"scenario.encode_ms", "ms"},
	{"scenario.resolve_ms", "ms"},
	{"scenario.compile_ms", "ms"},
	{"scenario.sched_fold_ms", "ms"},
	{"scenario.executor_calls", "count"},
	{"scenario.memo_hit_ratio", "ratio"},
	{"scenario.parallel_speedup", "ratio"},
	{"cluster.placements", "count"},
	{"cluster.rejections", "count"},
	{"cluster.killed", "count"},
	{"emulator.busy_ms", "ms"},
	{"emulator.replays", "count"},
	{"emulator.us_per_replay", "us"},
	{"emulator.share", "ratio"},
	{"emulation_err_pct", "%"},
	{"dist.compile_ms", "ms"},
	{"dist.rpc_ms_p50", "ms"},
	{"dist.rpc_ms_p90", "ms"},
	{"dist.worker_handler_ms_p50", "ms"},
	{"dist.coord_self_ms", "ms"},
	{"dist.rpcs", "count"},
	{"dist.chunks", "count"},
	{"dist.steals", "count"},
	{"dist.speculative_discards", "count"},
	{"dist.recomputed_chunks", "count"},
	{"dist.useful_ratio", "ratio"},
	{"dist.wire_kb_per_emulation", "KB"},
	{"dist.vs_local_ratio", "ratio"},
	{"storeclnt.put_ms_p50", "ms"},
	{"storeclnt.put_ms_p99", "ms"},
	{"storeclnt.find_ms_p50", "ms"},
	{"storeclnt.find_ms_p99", "ms"},
	{"storesrv.put_handler_ms_p50", "ms"},
	{"storesrv.find_handler_ms_p50", "ms"},
	{"storeclnt.revalidated_ratio", "ratio"},
	{"storeclnt.wire_kb_per_op", "KB"},
	{"storeclnt.retries", "count"},
	{"storesrv.shed", "count"},
	{"storeclnt.share", "ratio"},
	{"storeclnt.client_scaling", "ratio"},
	{"core.profile_ms_p50", "ms"},
	{"profile.doc_kb", "KB"},
	{"runtime.allocs_per_emulation", "count"},
	{"runtime.alloc_kb_per_emulation", "KB"},
	{"runtime.gc_cycles_per_unit", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

// workload is one benchmark workload, set up and ready for windows.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// unit runs unit idx of a client and returns the emulations it
	// completed; an error, or a failed output check, fails the unit.
	unit(ctx context.Context, client, idx int) (int, error)
	// after runs after each unit, outside its clock.
	after(client int)
	// verify runs the after-window output checks and fails the units
	// that do not pass.
	verify(ctx context.Context, res *windowResult)
	// setTracer starts (non-nil) or stops (nil) tracing.
	setTracer(tr *tracer)
	// resetCounters zeroes the wire and service counters before the
	// traced window.
	resetCounters()
	// ratio measures the workload's outside-in ratio, if it has one.
	ratio(ctx context.Context, d time.Duration, untraced *windowResult) (string, float64)
	// layerMetrics derives the per-layer metrics of the traced window.
	layerMetrics(res *windowResult, spans []span) map[string]float64
	close()
}

func newWorkload(ctx context.Context, name string, seed uint64, traced bool) (workload, error) {
	if name == "profile-emulate" {
		return newStoreBench(ctx, seed, traced)
	}
	return newScenarioBench(ctx, name, seed, traced)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansDir string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scenario-replay, scenario-cluster, scenario-dist or profile-emulate")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans", filepath.Join(".bench_build", "perfbench-spans"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return runTraced(ctx, cfg, d, out)
	}

	var setupTimes []float64
	var w workload
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		w, err = newWorkload(ctx, cfg.workload, cfg.seed, false)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			w.close()
		}
	}
	defer w.close()
	setup, _ := median(sortedCopy(setupTimes))

	res := runWindow(ctx, w.clients(), d, nil, w.unit, w.after, untracedPhase)
	rss := peakRSSMB()
	w.verify(ctx, res)
	r := &result{Attempted: len(res.units), Failed: res.failed(), Metrics: map[string]metricValue{}}
	ms := res.unitMillis()
	p50, _ := median(ms)
	p90, ok := tailPercentile(ms, 0.9)
	r.Correct = r.Failed == 0 && ok
	vals := map[string]float64{
		"setup_s":              setup,
		"emulations_per_s":     res.emulationsPerSec(),
		"unit_ms_p50":          p50,
		"unit_ms_p90":          p90,
		"cpu_us_per_emulation": float64(res.cpu.Microseconds()) / float64(max(res.emulations, 1)),
		"peak_rss_mb":          rss,
	}
	if !ok {
		vals["unit_ms_p90"] = math.NaN()
	}
	fmt.Fprintf(out, "workload %s seed %d: %d units (%d failed) in %.3fs, %d emulations\n",
		cfg.workload, cfg.seed, len(res.units), r.Failed, res.wall.Seconds(), res.emulations)
	for _, u := range res.units {
		if u.err != nil {
			fmt.Fprintf(out, "  unit %d failed: %v\n", u.id, u.err)
			break
		}
	}
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "unit_ms_p90":
			note = fmt.Sprintf("  (n=%d)", len(ms))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", setups)
		}
		printMetric(out, m, vals[m.name], note)
		r.Metrics[m.name] = metricValue{Value: jsonValue(vals[m.name]), Unit: m.unit}
	}
	printMetric(out, metric{"fail_ratio", "ratio"}, float64(r.Failed)/float64(max(len(res.units), 1)), "")
	if sb, ok := w.(*storeBench); ok {
		printMetric(out, metric{"emulation_err_pct", "%"}, sb.errPctMedian(res), "")
	}
	return r, nil
}

// runTraced is the -trace 1 run. Its windows together last d: an untraced
// window (the baseline for the tracing overhead, the ratios and the runtime
// metrics) of 2/5 of d, the workload's ratio window of 1/5, and the traced
// window, for the spans, of 2/5.
func runTraced(ctx context.Context, cfg config, d time.Duration, out io.Writer) (*result, error) {
	w, err := newWorkload(ctx, cfg.workload, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer w.close()

	base := runWindow(ctx, w.clients(), d*2/5, nil, w.unit, w.after, untracedPhase)
	w.verify(ctx, base)
	ratioName, ratio := w.ratio(ctx, d/5, base)

	tr := newTracer()
	w.resetCounters()
	w.setTracer(tr)
	traced := runWindow(ctx, w.clients(), d*2/5, tr, w.unit, w.after, tracedPhase)
	w.setTracer(nil)
	w.verify(ctx, traced)
	spans := tr.snapshot()

	m := w.layerMetrics(traced, spans)
	if ratioName != "" {
		m[ratioName] = ratio
	}
	if sb, ok := w.(*storeBench); ok {
		m["emulation_err_pct"] = sb.errPctMedian(base)
	}
	if n := float64(base.emulations); n > 0 {
		m["runtime.allocs_per_emulation"] = (base.rt1.allocs - base.rt0.allocs) / n
		m["runtime.alloc_kb_per_emulation"] = (base.rt1.allocBytes - base.rt0.allocBytes) / 1024 / n
	}
	if n := float64(len(base.units)); n > 0 {
		m["runtime.gc_cycles_per_unit"] = (base.rt1.gcCycles - base.rt0.gcCycles) / n
	}
	if cpu := base.rt1.totalCPU - base.rt0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_fraction"] = (base.rt1.gcCPU - base.rt0.gcCPU) / cpu
	}
	m["trace.overhead_pct"] = 100 * (1 - traced.emulationsPerSec()/base.emulationsPerSec())

	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.writeJSON(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	r := &result{
		Attempted: len(base.units) + len(traced.units),
		Failed:    base.failed() + traced.failed(),
		Metrics:   map[string]metricValue{},
	}
	r.Correct = r.Failed == 0
	fmt.Fprintf(out, "workload %s seed %d traced: %d units untraced (%.0f emulations/s), %d traced (%.0f emulations/s), %d spans in %s\n",
		cfg.workload, cfg.seed, len(base.units), base.emulationsPerSec(), len(traced.units), traced.emulationsPerSec(), len(spans), path)
	for _, mt := range perLayer {
		v, ok := m[mt.name]
		note := ""
		if !ok {
			note = "  (layer not loaded)"
		}
		printMetric(out, mt, v, note)
		r.Metrics[mt.name] = metricValue{Value: jsonValue(v), Unit: mt.unit}
	}
	extra := make([]string, 0)
	for name := range m {
		if !isPerLayer(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return nil, fmt.Errorf("layer metrics %v are not in the per-layer list", extra)
	}
	return r, nil
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func printMetric(out io.Writer, m metric, v float64, note string) {
	if math.IsNaN(v) {
		fmt.Fprintf(out, "  %-32s %14s %-6s%s\n", m.name, "missing", m.unit, note)
		return
	}
	fmt.Fprintf(out, "  %-32s %14.4f %-6s%s\n", m.name, v, m.unit, note)
}

// jsonValue maps a missing value (NaN) to 0, which JSON can carry; the
// table above the result line prints it as missing.
func jsonValue(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives the i-th value of a named stream from the workload seed.
func mix(seed uint64, stream string, i uint64) uint64 {
	h := splitmix(seed)
	for _, c := range []byte(stream) {
		h = splitmix(h ^ uint64(c))
	}
	return splitmix(h ^ i)
}

// unitSeed is the seed of unit idx of a client.
func unitSeed(seed uint64, client, idx int) uint64 {
	return mix(seed, "unit", uint64(client)<<32|uint64(idx))
}

// unitFloat maps a seed to [0, 1).
func unitFloat(s uint64) float64 { return float64(splitmix(s)>>11) / (1 << 53) }
