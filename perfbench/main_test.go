package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"synapse/internal/scenario"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, ok := tailPercentile(mk(99), 0.9); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it; want missing")
	}
	v, ok := tailPercentile(mk(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (a sample, not interpolated)", v, ok)
	}
	if _, ok := tailPercentile(mk(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it; want missing")
	}
	if v, ok := tailPercentile(mk(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Fatal("p90 of no samples; want missing")
	}
}

func TestSeedGivesIdenticalSpecs(t *testing.T) {
	for _, seed := range []uint64{1, 2, 1 << 63} {
		for idx := 0; idx < 3; idx++ {
			us := unitSeed(seed, 0, idx)
			if us != unitSeed(seed, 0, idx) {
				t.Fatal("unitSeed is not a function of its inputs")
			}
			for name, spec := range map[string]func(uint64) []byte{
				"replay":  func(s uint64) []byte { return replaySpec(s, mdLong) },
				"dist":    func(s uint64) []byte { return replaySpec(s, mdShort) },
				"cluster": clusterSpec,
			} {
				a, b := spec(us), spec(us)
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: seed %d unit %d gave two specs", name, seed, idx)
				}
				if bytes.Equal(a, spec(unitSeed(seed, 0, idx+1))) {
					t.Fatalf("%s: units %d and %d share a spec", name, idx, idx+1)
				}
				if _, err := scenario.Parse(a); err != nil {
					t.Fatalf("%s: generated spec does not parse: %v", name, err)
				}
			}
		}
	}
	if unitSeed(1, 0, 0) == unitSeed(2, 0, 0) {
		t.Fatal("two workload seeds gave the same unit seed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every reported name and unit against the
// benchmark's naming rule, and that BENCHMARK.json lists exactly the
// metrics the program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q breaks the naming rule", m.name)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q breaks the naming rule", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %s listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q breaks the naming rule", w)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json %s lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, program reports %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("BENCHMARK.json workload %d = %s, program has %s", i, w.Name, workloads[i])
		}
	}
}

// TestFailedCheckRaisesFailRatio injects a failing output check into a
// real workload, both in a unit and in the after-window re-run, and
// requires the failures to count rather than crash or vanish.
func TestFailedCheckRaisesFailRatio(t *testing.T) {
	ctx := context.Background()
	w, err := newWorkload(ctx, "scenario-cluster", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	b := w.(*scenarioBench)

	res := runWindow(ctx, 1, 100*time.Millisecond, nil, w.unit, w.after, untracedPhase)
	w.verify(ctx, res)
	if len(res.units) == 0 || res.failed() != 0 {
		t.Fatalf("clean window: %d units, %d failed; want >0 units, none failed", len(res.units), res.failed())
	}

	// A wrong report digest: the re-run check must fail the unit.
	b.mu.Lock()
	b.outs[res.units[0].id].digest[0] ^= 1
	b.mu.Unlock()
	w.verify(ctx, res)
	if res.failed() != 1 {
		t.Fatalf("tampered digest: %d units failed, want 1", res.failed())
	}

	// A conservation check that cannot hold: every unit fails.
	b.arrivals++
	res = runWindow(ctx, 1, 100*time.Millisecond, nil, w.unit, w.after, tracedPhase)
	if len(res.units) == 0 || res.failed() != len(res.units) {
		t.Fatalf("broken check: %d of %d units failed, want all", res.failed(), len(res.units))
	}
	if res.emulations != 0 {
		t.Fatalf("failed units counted %d emulations, want 0", res.emulations)
	}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: counted once
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Fatalf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

// TestTracedRun drives the traced run through each kind of wrapper: the
// Executor seam (scenario-cluster) and the loopback services, whose spans
// come from several goroutines at once. Every per-layer metric must be in
// the result.
func TestTracedRun(t *testing.T) {
	for _, tc := range []struct{ workload, loaded string }{
		{"scenario-cluster", "scenario.executor_calls"},
		{"scenario-dist", "dist.rpcs"},
		{"profile-emulate", "storeclnt.share"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := config{workload: tc.workload, seed: 3, trace: true, spansDir: t.TempDir()}
			res, err := runTraced(context.Background(), cfg, 300*time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("metric %s missing from the result", m.name)
				}
			}
			if v := res.Metrics[tc.loaded].Value; v <= 0 {
				t.Errorf("%s = %v on the workload that loads it", tc.loaded, v)
			}
		})
	}
}
