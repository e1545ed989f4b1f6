package emulator

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/testutil"
)

// emulateBoth replays p twice — through the legacy serial loop and the
// batched columnar path — under otherwise identical options.
func emulateBoth(t *testing.T, p *profile.Profile, mod func(*Options)) (*Report, *Report) {
	t.Helper()
	run := func(serial bool) *Report {
		opts := Options{
			Atoms:  atoms.Config{Machine: machine.MustGet(machine.Comet)},
			Serial: serial,
		}
		if mod != nil {
			mod(&opts)
		}
		rep, err := Emulate(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	return run(true), run(false)
}

// reportsIdentical asserts bit-for-bit equality of everything the serial and
// batched paths must agree on.
func reportsIdentical(t *testing.T, serial, batched *Report) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...interface{}) {
		t.Errorf(format, args...)
		ok = false
	}
	if serial.Samples != batched.Samples {
		fail("samples: serial %d, batched %d", serial.Samples, batched.Samples)
	}
	if serial.Tx != batched.Tx {
		fail("Tx: serial %v, batched %v", serial.Tx, batched.Tx)
	}
	if serial.Startup != batched.Startup {
		fail("startup: serial %v, batched %v", serial.Startup, batched.Startup)
	}
	if serial.Consumed != batched.Consumed {
		fail("consumed: serial %+v, batched %+v", serial.Consumed, batched.Consumed)
	}
	for _, atom := range []string{"compute", "storage", "memory", "network"} {
		if s, b := serial.BusyTime(atom), batched.BusyTime(atom); s != b {
			fail("busy %s: serial %v, batched %v", atom, s, b)
		}
	}
	sd, bd := serial.SampleDurations(), batched.SampleDurations()
	if len(sd) != len(bd) {
		fail("durations: serial %d, batched %d", len(sd), len(bd))
		return ok
	}
	for i := range sd {
		if sd[i] != bd[i] {
			fail("duration %d: serial %v, batched %v", i, sd[i], bd[i])
		}
	}
	if len(serial.Trace) != len(batched.Trace) {
		fail("trace: serial %d, batched %d", len(serial.Trace), len(batched.Trace))
		return ok
	}
	for i := range serial.Trace {
		s, b := serial.Trace[i], batched.Trace[i]
		if s.Index != b.Index || s.Start != b.Start || s.Dur != b.Dur || s.Consumed != b.Consumed {
			fail("trace %d: serial %+v, batched %+v", i, s, b)
		}
		if len(s.Spans) != len(b.Spans) {
			fail("trace %d spans: serial %v, batched %v", i, s.Spans, b.Spans)
			continue
		}
		for j := range s.Spans {
			if s.Spans[j] != b.Spans[j] {
				fail("trace %d span %d: serial %+v, batched %+v", i, j, s.Spans[j], b.Spans[j])
			}
		}
	}
	return ok
}

// The batched path must reproduce the serial reference bit-for-bit across
// the property-test profile space.
func TestBatchedMatchesSerialProperty(t *testing.T) {
	f := func(cycles, rw, mem []uint32) bool {
		p := randomProfile(cycles, rw, mem)
		serial, batched := emulateBoth(t, p, nil)
		return reportsIdentical(t, serial, batched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Equivalence must hold under every configuration knob that feeds the
// request split: MPI duplication, disabled atoms, profiled blocks, loads.
func TestBatchedMatchesSerialConfigs(t *testing.T) {
	p := randomProfile(
		[]uint32{5_000_000, 0, 1_000_000, 3_000_000, 0, 800_000},
		[]uint32{1 << 22, 1 << 20, 0, 1 << 24, 1 << 18, 0},
		[]uint32{1 << 20, 0, 1 << 22, 0, 1 << 19, 1 << 21},
	)
	mods := map[string]func(*Options){
		"default": nil,
		"mpi-duplication": func(o *Options) {
			o.Atoms.Workers = 4
			o.Atoms.Mode = machine.ModeMPI
		},
		"openmp": func(o *Options) {
			o.Atoms.Workers = 8
			o.Atoms.Mode = machine.ModeOpenMP
		},
		"disabled-atoms": func(o *Options) {
			o.DisableStorage = true
			o.DisableNetwork = true
		},
		"profiled-blocks": func(o *Options) {
			o.Atoms.UseProfiledBlocks = true
		},
		"loads": func(o *Options) {
			o.Atoms.Load = 0.3
			o.Atoms.DiskLoad = 0.2
			o.Atoms.MemLoad = 0.1
		},
		"no-driver-costs": func(o *Options) {
			o.StartupDelay = -1
			o.SampleOverhead = -1
		},
		"c-kernel": func(o *Options) {
			o.Atoms.Kernel = machine.KernelC
		},
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			serial, batched := emulateBoth(t, p, mod)
			reportsIdentical(t, serial, batched)
		})
	}
}

// Equivalence of aggregates must hold at every trace level, and each level
// must retain exactly the detail it promises.
func TestTraceLevels(t *testing.T) {
	p := randomProfile(
		[]uint32{2_000_000, 1_000_000, 0, 500_000},
		[]uint32{1 << 20, 0, 1 << 22, 1 << 18},
		[]uint32{0, 1 << 20, 1 << 19, 0},
	)
	full, _ := emulateBoth(t, p, func(o *Options) { o.TraceLevel = TraceFull })
	for _, serial := range []bool{true, false} {
		for _, level := range []TraceLevel{TraceFull, TraceDurations, TraceNone} {
			opts := Options{
				Atoms:      atoms.Config{Machine: machine.MustGet(machine.Comet)},
				Serial:     serial,
				TraceLevel: level,
			}
			rep, err := Emulate(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tx != full.Tx || rep.Consumed != full.Consumed {
				t.Errorf("serial=%v level=%v: aggregates diverge (Tx %v vs %v)",
					serial, level, rep.Tx, full.Tx)
			}
			if got := rep.BusyTime("compute"); got != full.BusyTime("compute") {
				t.Errorf("serial=%v level=%v: busy time diverges", serial, level)
			}
			switch level {
			case TraceFull:
				if len(rep.Trace) != len(p.Samples) {
					t.Errorf("serial=%v: full trace has %d of %d samples", serial, len(rep.Trace), len(p.Samples))
				}
			case TraceDurations:
				if len(rep.Trace) != 0 || len(rep.SampleDurations()) != len(p.Samples) {
					t.Errorf("serial=%v: durations level kept trace=%d durs=%d",
						serial, len(rep.Trace), len(rep.SampleDurations()))
				}
			case TraceNone:
				if len(rep.Trace) != 0 || rep.SampleDurations() != nil {
					t.Errorf("serial=%v: none level kept detail", serial)
				}
			}
		}
	}
}

// The batched fast path must be allocation-free per sample: a whole replay
// costs a fixed number of allocations (buffers, report, atom set), so the
// per-sample rate vanishes as profiles grow, where the serial loop paid a
// handful of allocations on every sample. The ISSUE's acceptance bar is
// ≥10× fewer allocs/sample; assert a large margin over it.
func TestBatchedReplayAllocCeiling(t *testing.T) {
	const n = 4096
	p := benchReplayProfile(n)
	m := machine.MustGet(machine.Thinkie)
	run := func(serial bool, level TraceLevel) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := Emulate(context.Background(), p, Options{
				Atoms:      atoms.Config{Machine: m},
				Serial:     serial,
				TraceLevel: level,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	serialFull := run(true, TraceFull)
	batchedFull := run(false, TraceFull)
	batchedNone := run(false, TraceNone)

	if perSample := batchedNone / n; perSample > 0.1 {
		t.Errorf("batched TraceNone replay: %.3f allocs/sample, want < 0.1 (total %.0f)", perSample, batchedNone)
	}
	if batchedFull*10 > serialFull {
		t.Errorf("batched full-trace replay allocates %.0f, serial %.0f: want ≥10× reduction", batchedFull, serialFull)
	}
	t.Logf("allocs per replay of %d samples: serial=%.0f batched(full)=%.0f batched(none)=%.0f",
		n, serialFull, batchedFull, batchedNone)

	// The scenario engine's path: a pooled handle replaying into a
	// caller-owned report allocates nothing once its scratch is warm.
	t.Run("pooled", func(t *testing.T) {
		if testutil.RaceEnabled {
			t.Skip("the race detector makes sync.Pool drop items")
		}
		r, err := NewRun(p, Options{Atoms: atoms.Config{Machine: m}, TraceLevel: TraceNone})
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		emulate := func() {
			if err := r.EmulateWithLoad(context.Background(), 0.25, &rep); err != nil {
				t.Fatal(err)
			}
		}
		emulate() // warm the pool
		if allocs := testing.AllocsPerRun(20, emulate); allocs != 0 {
			t.Errorf("pooled TraceNone replay into a caller-owned report: %.1f allocs, want 0", allocs)
		}
		if rep.Samples != n || rep.Tx <= 0 {
			t.Errorf("report = %d samples, Tx %v; want %d samples", rep.Samples, rep.Tx, n)
		}
	})
}

// benchReplayProfile builds a deterministic mixed-demand profile of n
// samples: the workload shape of the paper's Fig 2 (alternating and
// overlapping compute/storage/memory/network demand).
func benchReplayProfile(n int) *profile.Profile {
	p := profile.New("replay-bench", nil)
	p.SampleRate = 1
	for i := 0; i < n; i++ {
		v := map[string]float64{}
		switch i % 4 {
		case 0:
			v[profile.MetricCPUCycles] = 2.5e9
			v[profile.MetricCPUFLOPs] = 1e8
		case 1:
			v[profile.MetricIOWriteBytes] = 64 << 20
			v[profile.MetricIOReadBytes] = 16 << 20
		case 2:
			v[profile.MetricCPUCycles] = 1.2e9
			v[profile.MetricMemAlloc] = 32 << 20
			v[profile.MetricMemFree] = 16 << 20
		case 3:
			v[profile.MetricNetReadBytes] = 4 << 20
			v[profile.MetricNetWriteBytes] = 8 << 20
			v[profile.MetricCPUCycles] = 6e8
		}
		_ = p.Append(profile.Sample{T: time.Duration(i+1) * time.Second, Values: v})
	}
	p.Finalize(time.Duration(n+1) * time.Second)
	return p
}
