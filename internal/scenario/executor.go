package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"synapse/internal/emulator"
	"synapse/internal/exp"
	"synapse/internal/perfcount"
	"synapse/internal/profile"
	"synapse/internal/store"
)

// Job identifies one distinct replay in a scenario run: instances of one
// workload with the same effective load on the same machine share a single
// deterministic emulation, and a Job names that equivalence class. Jobs are
// the unit of distributed execution — the coordinator ships them to workers,
// which resolve them against their own compilation of the same spec. Load
// travels as raw float bits so the wire never rounds it: two processes must
// agree bit-for-bit on the job identity or they are not running the same
// scenario.
type Job struct {
	// Workload is the workload's index in the spec.
	Workload int `json:"w"`
	// Machine is the node machine the replay runs on in cluster mode;
	// empty means the workload's own emulation machine (eager mode).
	Machine string `json:"machine,omitempty"`
	// LoadBits is math.Float64bits of the effective background load.
	LoadBits uint64 `json:"load_bits"`
}

// ErrInvalidJob reports a job this compilation cannot resolve: its
// workload index is out of range, or its machine has no emulation handle.
// The job, not the executor, is at fault, so executing it again anywhere
// fails the same way.
var ErrInvalidJob = errors.New("scenario: invalid job")

// Load returns the job's effective load as a float64.
func (j Job) Load() float64 { return math.Float64frombits(j.LoadBits) }

// Outcome is the one record a replay job becomes on its way to the fold:
// exactly the fields report aggregation consumes. The local executor fills
// outcomes in place; remote workers ship them as the distributed worker
// protocol's wire type, chosen so that an outcome computed remotely is
// bit-identical to one computed in process — durations are integer
// nanoseconds and counters round-trip exactly through JSON — which is what
// makes the merged report byte-identical to a single-process run.
type Outcome struct {
	// Tx is the instance's emulation (service) time.
	Tx time.Duration `json:"tx"`
	// Busy is each atom's busy time, indexed like emulator.AtomNames
	// (compute, memory, network, storage).
	Busy [emulator.NumAtoms]time.Duration `json:"busy"`
	// Consumed aggregates what the atoms consumed replaying the instance.
	Consumed perfcount.Counters `json:"consumed"`
}

// Executor resolves batches of replay jobs. Run calls it once with every
// distinct job in eager (clusterless) mode, and once per scheduling instant
// with that instant's fresh jobs in cluster mode; jobs is only read during
// the call. Outcomes come back in job order. Implementations must be pure:
// the outcome of a job depends only on the (spec, seed) pair both sides
// compiled, never on batching, timing or which worker computed it — that
// invariance is the determinism contract distributed execution is gated
// on.
type Executor interface {
	ExecuteJobs(ctx context.Context, jobs []Job) ([]*Outcome, error)
}

// StreamingExecutor is the streaming-fold seam: an Executor that can
// deliver outcomes incrementally, in contiguous job-order batches, instead
// of materializing the whole result slice. sink is called with the global
// index of the batch's first outcome; batches arrive in order and
// concatenate to exactly one outcome per job. The sink copies what it
// keeps, so the executor may release or reuse the outcomes once it
// returns — which is what lets it drop buffered results behind its fold
// watermark and keep peak resident outcomes bounded by its window rather
// than by the job count. The outcomes themselves are byte-identical to
// what ExecuteJobs would return, so folding them incrementally leaves the
// report unchanged.
type StreamingExecutor interface {
	Executor
	ExecuteJobsStream(ctx context.Context, jobs []Job, sink func(first int, outs []*Outcome) error) error
}

// execute resolves jobs through exec into outs, one outcome per job in
// job order, whichever face the executor offers: the local executor fills
// outs in place, a streaming executor's batches and a plain executor's
// result are copied in as they arrive. Every executor's shape contract is
// checked here, and only here.
func execute(ctx context.Context, exec Executor, jobs []Job, outs []Outcome) error {
	if le, ok := exec.(localExecutor); ok {
		return le.fill(ctx, jobs, outs)
	}
	folded := 0
	sink := func(first int, batch []*Outcome) error {
		if first != folded {
			return fmt.Errorf("scenario: executor returned a batch at job %d, fold watermark is %d", first, folded)
		}
		if first+len(batch) > len(jobs) {
			return fmt.Errorf("scenario: executor returned %d outcomes for %d jobs", first+len(batch), len(jobs))
		}
		for k, o := range batch {
			if o == nil {
				return fmt.Errorf("scenario: executor returned nil outcome for job %d", first+k)
			}
			outs[first+k] = *o
		}
		folded += len(batch)
		return nil
	}
	var err error
	if se, ok := exec.(StreamingExecutor); ok {
		err = se.ExecuteJobsStream(ctx, jobs, sink)
	} else {
		var got []*Outcome
		if got, err = exec.ExecuteJobs(ctx, jobs); err == nil {
			err = sink(0, got)
		}
	}
	if err == nil && folded != len(jobs) {
		err = fmt.Errorf("scenario: executor returned %d outcomes for %d jobs", folded, len(jobs))
	}
	return err
}

// localExecutor resolves jobs against this process's compiled run handles,
// fanning each batch across workers (> 0) goroutines.
type localExecutor struct {
	c       *compiled
	workers int
}

// ExecuteJobs implements Executor over one flat outcome slice.
func (e localExecutor) ExecuteJobs(ctx context.Context, jobs []Job) ([]*Outcome, error) {
	outs := make([]Outcome, len(jobs))
	if err := e.fill(ctx, jobs, outs); err != nil {
		return nil, err
	}
	ptrs := make([]*Outcome, len(outs))
	for i := range outs {
		ptrs[i] = &outs[i]
	}
	return ptrs, nil
}

// fill resolves jobs into outs across the fan-out. Each replay runs into a
// stack-held report on its handle's pooled scratch, so the batch allocates
// the same handful of objects whatever its size.
func (e localExecutor) fill(ctx context.Context, jobs []Job, outs []Outcome) error {
	_, err := exp.Fan(e.workers, len(jobs), nil, func(j int) (struct{}, error) {
		return struct{}{}, e.executeJob(ctx, jobs[j], &outs[j])
	})
	return err
}

// executeJob resolves one job into out.
func (e localExecutor) executeJob(ctx context.Context, job Job, out *Outcome) error {
	if job.Workload < 0 || job.Workload >= len(e.c.wls) {
		return fmt.Errorf("%w: workload %d of %d", ErrInvalidJob, job.Workload, len(e.c.wls))
	}
	ws := e.c.wls[job.Workload]
	run := ws.run
	if job.Machine != "" {
		run = ws.runs[job.Machine]
	}
	if run == nil {
		return fmt.Errorf("%w: workload %q has no emulation handle for machine %q",
			ErrInvalidJob, ws.spec.Name, job.Machine)
	}
	var rep emulator.Report
	if err := run.EmulateWithLoad(ctx, job.Load(), &rep); err != nil {
		return err
	}
	*out = Outcome{Tx: rep.Tx, Busy: rep.Busy, Consumed: rep.Consumed}
	return nil
}

// ResolveProfiles resolves every workload's profile reference through st,
// in spec order — the same profile Run would pick (the newest match per
// key). Distributed coordinators use it to ship the exact emulation inputs
// to workers that have no store access of their own.
func ResolveProfiles(ctx context.Context, spec *Spec, st store.Store) ([]*profile.Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profs := make([]*profile.Profile, len(spec.Workloads))
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		set, err := store.FindCtx(ctx, st, w.Profile.Command, w.Profile.Tags)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload %q: resolve profile: %w", w.Name, err)
		}
		profs[i] = set[len(set)-1]
	}
	return profs, nil
}

// JobRunner is the worker side of distributed execution: one spec compiled
// against a store, holding reusable emulation handles for every machine an
// instance could land on, ready to execute any shard's jobs. It is the
// local executor Run uses, plus the seed. A runner built from the same
// (spec, profiles) on any host produces bit-identical outcomes, so a
// coordinator may hand the same job to any worker — or to a replacement
// after a failure — without perturbing the merged report.
type JobRunner struct {
	localExecutor
}

// NewJobRunner compiles spec against st (profiles must already be present)
// and returns a runner executing up to workers replays concurrently
// (0 = GOMAXPROCS).
func NewJobRunner(ctx context.Context, spec *Spec, st store.Store, workers int) (*JobRunner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("scenario: no store to resolve profiles from")
	}
	c, err := compile(ctx, spec, st, true)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &JobRunner{localExecutor{c: c, workers: workers}}, nil
}

// Seed returns the compiled spec's seed — the root every shard key derives
// from, echoed in the worker protocol's determinism handshake.
func (r *JobRunner) Seed() uint64 { return r.c.spec.Seed }
