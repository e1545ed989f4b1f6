package emulator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/clock"
	"synapse/internal/machine"
	"synapse/internal/profile"
)

// Run is a reusable emulation handle: one profile plus one normalized set of
// options, replayable many times. NewRun performs the per-profile work once —
// validation, option normalization, the modeled startup cost — so callers
// that replay the same profile repeatedly (the scenario engine's workload
// instances, benchmark loops) skip it on every subsequent replay.
//
// A Run is safe for concurrent Emulate calls as long as Options.Clock is nil:
// each call then builds its own atom set and simulated clock. A caller-
// provided clock is shared by every replay, so those runs must be serialized
// by the caller.
type Run struct {
	p    *profile.Profile
	opts Options
	// startup and overhead are the normalized driver costs (defaults
	// applied, parallel worker-pool setup folded into startup).
	startup  time.Duration
	overhead time.Duration
	// pool recycles replayScratch values across simulated replays (see
	// emulateSim). Per-Run, so every pooled scratch shares the handle's
	// machine, kernel and filesystem — only the per-replay load varies.
	pool sync.Pool
}

// NewRun validates the profile and options and returns a reusable handle.
// The validation and normalization errors are exactly those Emulate returns.
func NewRun(p *profile.Profile, opts Options) (*Run, error) {
	if p == nil {
		return nil, fmt.Errorf("emulator: nil profile")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Atoms.Machine == nil {
		return nil, fmt.Errorf("emulator: options need a machine model")
	}

	startup := opts.StartupDelay
	switch {
	case startup < 0:
		startup = 0
	case startup == 0:
		startup = DefaultStartupDelay
	}
	overhead := opts.SampleOverhead
	switch {
	case overhead < 0:
		overhead = 0
	case overhead == 0:
		overhead = DefaultSampleOverhead
	}
	// Parallel runs pay the one-time worker-pool setup cost as part of
	// the startup (threads spawned / MPI ranks launched once per run).
	if opts.Atoms.Workers > 1 && opts.Atoms.Mode != machine.ModeSerial {
		startup += opts.Atoms.Machine.Threading.SetupOverhead(opts.Atoms.Workers, opts.Atoms.Mode)
	}
	return &Run{p: p, opts: opts, startup: startup, overhead: overhead}, nil
}

// Emulate replays the profile once and returns the run report.
func (r *Run) Emulate(ctx context.Context) (*Report, error) {
	rep := new(Report)
	if err := r.emulate(ctx, r.opts.Atoms, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// EmulateWithLoad replays the profile into the caller-owned rep, with the
// artificial background CPU load overridden for this replay only — the
// scenario engine's per-instance load jitter. The handle itself is not
// mutated. rep is overwritten whole; a simulated replay at TraceNone
// allocates nothing once the handle's scratch pool is warm.
func (r *Run) EmulateWithLoad(ctx context.Context, load float64, rep *Report) error {
	cfg := r.opts.Atoms
	cfg.Load = load
	return r.emulate(ctx, cfg, rep)
}

// begin resets rep to the header of one replay under cfg: what the report
// says before its first sample.
func (r *Run) begin(rep *Report, cfg *atoms.Config) {
	*rep = Report{Machine: cfg.Machine.Name, Kernel: cfg.Kernel, Startup: r.startup}
	if rep.Kernel == "" {
		rep.Kernel = machine.KernelASM
	}
}

// scratchEpoch is the simulated clock's fixed start time.
var scratchEpoch = time.Unix(0, 0).UTC()

// replayScratch is one simulated replay's working set: the atom set (built
// against the scratch's own config copy), the auto-advancing clock, and
// the batched loop's staging buffers. Recycling it turns the per-replay
// cost — four atoms, a clock, two slices — into a pool hit.
type replayScratch struct {
	cfg     atoms.Config
	set     []atoms.Atom
	clk     clock.AutoSim
	reqs    []atoms.Request
	results []atoms.Result
}

// acquire returns a replay-ready scratch for cfg: recycled from the pool
// when one is free (atoms reset, clock rewound, the new per-replay config
// written through the pointer the atoms hold), freshly built otherwise.
func (r *Run) acquire(cfg atoms.Config) (*replayScratch, error) {
	if sc, _ := r.pool.Get().(*replayScratch); sc != nil {
		// The atoms read *&sc.cfg at consume time and their precomputed
		// kernel/filesystem tables depend only on fields the per-Run pool
		// keeps constant, so overwriting the config in place retargets
		// them to this replay's load.
		sc.cfg = cfg
		atoms.ResetSim(sc.set)
		sc.clk.Reset(scratchEpoch)
		return sc, nil
	}
	sc := &replayScratch{cfg: cfg}
	set, err := atoms.NewSimSet(&sc.cfg)
	if err != nil {
		return nil, err
	}
	sc.set = filterAtoms(set, r.opts)
	sc.clk = clock.NewAutoSim(scratchEpoch)
	return sc, nil
}

// emulateSim is the simulated replay with an unpinned clock — the scenario
// engine's high-volume path. Nothing about it is observable outside the
// report (the clock starts at a fixed epoch and Tx is assembled from
// modeled parts), so the whole working set comes from the per-Run pool and
// the steady state allocates nothing but what the trace level retains.
func (r *Run) emulateSim(ctx context.Context, cfg atoms.Config, rep *Report) error {
	sc, err := r.acquire(cfg)
	if err != nil {
		return err
	}
	defer r.pool.Put(sc)

	if r.startup > 0 {
		sc.clk.Sleep(r.startup)
	}
	r.begin(rep, &sc.cfg)
	var total time.Duration
	if r.opts.Serial {
		total, err = replaySerial(ctx, sc.set, r.p, &sc.cfg, r.opts.TraceLevel, r.overhead, sc.clk, rep)
	} else {
		total, err = replayBatched(ctx, sc.set, r.p, &sc.cfg, r.opts.TraceLevel, r.overhead, sc.clk, rep, sc)
	}
	if err != nil {
		return err
	}
	// Simulated clocks advance exactly by slept time; assemble Tx from
	// parts to avoid clock granularity concerns.
	rep.Tx = r.startup + total
	return nil
}

// emulate is one replay into rep: pooled when simulated on an unpinned
// clock, fresh otherwise.
func (r *Run) emulate(ctx context.Context, cfg atoms.Config, rep *Report) error {
	if !r.opts.Real && r.opts.Clock == nil {
		return r.emulateSim(ctx, cfg, rep)
	}
	return r.emulateFresh(ctx, cfg, rep)
}

// emulateFresh is one replay on a fresh atom set and a fresh clock (unless
// the options pinned one), through the batched / serial / real replay
// loop. It is split from emulate because the atoms keep &cfg: the config
// escapes here, not on the pooled path.
func (r *Run) emulateFresh(ctx context.Context, cfg atoms.Config, rep *Report) error {
	var set []atoms.Atom
	var err error
	if r.opts.Real {
		set, err = atoms.NewRealSet(&cfg, r.opts.ScratchDir)
	} else {
		set, err = atoms.NewSimSet(&cfg)
	}
	if err != nil {
		return err
	}
	set = filterAtoms(set, r.opts)

	clk := r.opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}

	start := clk.Now()
	// Start-up: locate and load the profile, spawn atom threads. In real
	// mode the atom construction above already cost real time; the modeled
	// delay applies to simulated runs.
	if !r.opts.Real && r.startup > 0 {
		clk.Sleep(r.startup)
	}
	r.begin(rep, &cfg)

	var total time.Duration
	switch {
	case r.opts.Real:
		total, err = replayReal(ctx, set, r.p, &cfg, r.opts.TraceLevel, r.overhead, rep)
	case r.opts.Serial:
		total, err = replaySerial(ctx, set, r.p, &cfg, r.opts.TraceLevel, r.overhead, clk, rep)
	default:
		total, err = replayBatched(ctx, set, r.p, &cfg, r.opts.TraceLevel, r.overhead, clk, rep, nil)
	}
	if err != nil {
		return err
	}

	rep.Tx = clk.Now().Sub(start)
	if !r.opts.Real {
		// Simulated clocks advance exactly by slept time; assemble Tx
		// from parts to avoid clock granularity concerns.
		rep.Tx = r.startup + total
	}
	return nil
}
