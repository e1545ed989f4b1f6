package scenario

import (
	"context"
	"math"
	"strings"
	"testing"

	"synapse/internal/testutil"
)

// jitterJobs builds n distinct jobs of workload 0: every one a replay.
func jitterJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: 0, LoadBits: math.Float64bits(0.1 + 1e-6*float64(i))}
	}
	return jobs
}

// TestLocalExecutorAllocsFlat pins the local executor's per-job cost at
// zero allocations: one batch allocates the same handful of objects (the
// fan-out's goroutines and error slots) whatever its size, because every
// replay runs into a stack-held report on pooled scratch and lands in the
// caller's flat outcome slice.
func TestLocalExecutorAllocsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	ctx := context.Background()
	r, err := NewJobRunner(ctx, benchSpec(1, 1), seedStore(t, "mdsim"), 2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		jobs := jitterJobs(n)
		outs := make([]Outcome, n)
		fill := func() {
			if err := r.fill(ctx, jobs, outs); err != nil {
				t.Fatal(err)
			}
		}
		fill() // warm the handles' scratch pools
		return testing.AllocsPerRun(10, fill)
	}
	small, large := allocs(64), allocs(1024)
	// A little slack: a worker that finds its pool shard empty builds one
	// more scratch, however rarely.
	if large > small+4 {
		t.Errorf("local executor: %.1f allocs for 1024 jobs, %.1f for 64; want no growth with batch size", large, small)
	}
	t.Logf("allocs per batch: 64 jobs %.1f, 1024 jobs %.1f", small, large)
}

// badExecutor returns a fixed, contract-violating result.
type badExecutor struct{ outs []*Outcome }

func (e badExecutor) ExecuteJobs(context.Context, []Job) ([]*Outcome, error) { return e.outs, nil }

// badStream streams fixed batches at fixed offsets.
type badStream struct {
	badExecutor
	firsts []int
}

func (e badStream) ExecuteJobsStream(_ context.Context, _ []Job, sink func(int, []*Outcome) error) error {
	for i, first := range e.firsts {
		if err := sink(first, e.outs[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// TestExecuteShapeChecks holds both executor faces to the shape contract:
// one non-nil outcome per job, in order, nothing past the end.
func TestExecuteShapeChecks(t *testing.T) {
	o := &Outcome{Tx: 1}
	jobs := jitterJobs(2)
	for _, tc := range []struct {
		name string
		exec Executor
		want string
	}{
		{"short", badExecutor{[]*Outcome{o}}, "1 outcomes for 2 jobs"},
		{"long", badExecutor{[]*Outcome{o, o, o}}, "3 outcomes for 2 jobs"},
		{"nil", badExecutor{[]*Outcome{o, nil}}, "nil outcome for job 1"},
		{"stream-gap", badStream{badExecutor{[]*Outcome{o, o}}, []int{0, 2}}, "batch at job 2, fold watermark is 1"},
		{"stream-short", badStream{badExecutor{[]*Outcome{o}}, []int{0}}, "1 outcomes for 2 jobs"},
		{"stream-nil", badStream{badExecutor{[]*Outcome{nil}}, []int{0}}, "nil outcome for job 0"},
	} {
		outs := make([]Outcome, len(jobs))
		err := execute(context.Background(), tc.exec, jobs, outs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	outs := make([]Outcome, len(jobs))
	if err := execute(context.Background(), badExecutor{[]*Outcome{o, o}}, jobs, outs); err != nil || outs[1] != *o {
		t.Errorf("conforming executor: err = %v, outs = %+v", err, outs)
	}
}
