package dist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/profile"
	"synapse/internal/retry"
	"synapse/internal/scenario"
	"synapse/internal/store"
)

// seedStore profiles the named commands into a fresh in-memory store, with
// the same profiling parameters the scenario package's tests use — the
// goldens under ../scenario/testdata were captured against these profiles.
func seedStore(tb testing.TB, cmds ...string) store.Store {
	tb.Helper()
	st := store.NewMem()
	for _, cmd := range cmds {
		_, err := core.ProfileCommandString(context.Background(), cmd, nil, core.ProfileOptions{
			Machine:    "thinkie",
			SampleRate: 1,
			Store:      st,
			Seed:       7,
		})
		if err != nil {
			tb.Fatalf("profiling %q: %v", cmd, err)
		}
	}
	return st
}

// loadSpec loads one of the scenario package's golden specs by base name.
func loadSpec(tb testing.TB, name string) *scenario.Spec {
	tb.Helper()
	spec, err := scenario.Load(filepath.Join("..", "scenario", "testdata", name+".spec.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// localFleet builds n in-process workers.
func localFleet(n int) []Worker {
	fleet := make([]Worker, n)
	for i := range fleet {
		fleet[i] = NewLocalWorker(fmt.Sprintf("local-%d", i), 2)
	}
	return fleet
}

// fastRetry is a retry policy tight enough for failure-injection tests.
func fastRetry() *retry.Policy {
	p := retry.Default()
	p.Attempts = 2
	p.BaseDelay = time.Millisecond
	p.MaxDelay = 5 * time.Millisecond
	return &p
}

// jitteredSpec is an eager (clusterless) spec whose per-instance loads are
// arbitrary float64 draws — the adversarial input for the load-bits wire
// encoding and the rendezvous partition.
func jitteredSpec() *scenario.Spec {
	return &scenario.Spec{
		Version:       scenario.SpecVersion,
		Name:          "dist-jitter",
		Seed:          421,
		MaxConcurrent: 4,
		Workloads: []scenario.Workload{
			{
				Name:    "md",
				Profile: scenario.ProfileRef{Command: "mdsim", Tags: map[string]string{"steps": "10000"}},
				Arrival: scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 3, Iterations: 4},
				Emulation: scenario.Emulation{
					Machine:    "stampede",
					Load:       0.3,
					LoadJitter: 0.25,
				},
			},
			{
				Name:    "nap",
				Profile: scenario.ProfileRef{Command: "sleep", Tags: map[string]string{"seconds": "1"}},
				Arrival: scenario.Arrival{Process: scenario.ArrivalConstant, Rate: 2, Count: 6},
				Emulation: scenario.Emulation{
					Machine:    "comet",
					Load:       0.1,
					LoadJitter: 0.05,
				},
			},
		},
	}
}

func TestShardKeysStable(t *testing.T) {
	a := ShardKeys(99, 16)
	b := ShardKeys(99, 16)
	if len(a) != 16 {
		t.Fatalf("len = %d, want 16", len(a))
	}
	seen := make(map[uint64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard key %d not stable: %#x vs %#x", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate shard key %#x", a[i])
		}
		seen[a[i]] = true
	}
	c := ShardKeys(100, 16)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical shard keys")
	}
}

// TestShardPartitionDeterministic pins the property byte-identity rests on:
// the job→shard map depends only on (seed, shard count), never on the fleet,
// and every shard gets work when there are many more jobs than shards.
func TestShardPartitionDeterministic(t *testing.T) {
	keys := ShardKeys(7, 8)
	hit := make([]int, len(keys))
	for w := 0; w < 40; w++ {
		for l := 0; l < 25; l++ {
			j := scenario.Job{Workload: w, Machine: "m", LoadBits: uint64(l) * 0x9e3779b97f4a7c15}
			s := shardOf(jobHash(j), keys)
			if s < 0 || s >= len(keys) {
				t.Fatalf("shardOf out of range: %d", s)
			}
			if again := shardOf(jobHash(j), keys); again != s {
				t.Fatalf("shardOf not deterministic: %d vs %d", s, again)
			}
			hit[s]++
		}
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d got no jobs out of 1000 (degenerate partition)", s)
		}
	}
}

func TestJobHashDistinguishesFields(t *testing.T) {
	base := scenario.Job{Workload: 1, Machine: "stampede", LoadBits: 42}
	variants := []scenario.Job{
		{Workload: 2, Machine: "stampede", LoadBits: 42},
		{Workload: 1, Machine: "comet", LoadBits: 42},
		{Workload: 1, Machine: "stampede", LoadBits: 43},
		{Workload: 1, Machine: "", LoadBits: 42},
	}
	h := jobHash(base)
	for i, v := range variants {
		if jobHash(v) == h {
			t.Errorf("variant %d hashes identically to base", i)
		}
	}
}

func TestSessionsEviction(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(2)
	ctx := context.Background()
	for _, id := range []string{"s1", "s2", "s3"} {
		if _, err := ss.compile(ctx, &CompileRequest{Session: id, Spec: spec, Profiles: profs, Shards: 4}, 1); err != nil {
			t.Fatalf("compile %s: %v", id, err)
		}
	}
	if n := ss.len(); n != 2 {
		t.Fatalf("sessions held = %d, want 2 (cap)", n)
	}
	if _, err := ss.get("s1"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("oldest session survived eviction: %v", err)
	}
	for _, id := range []string{"s2", "s3"} {
		if _, err := ss.get(id); err != nil {
			t.Fatalf("session %s evicted early: %v", id, err)
		}
	}
	// Recompiling a held session must not count as a new insertion.
	if _, err := ss.compile(ctx, &CompileRequest{Session: "s3", Spec: spec, Profiles: profs, Shards: 4}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.get("s2"); err != nil {
		t.Fatalf("recompile of s3 evicted s2: %v", err)
	}
}

func TestSessionsExecuteValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(0)
	ctx := context.Background()
	none := func([]*scenario.Outcome) error { return nil }
	if err := ss.executeStream(ctx, &ExecuteRequest{Session: "nope"}, none); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown session: %v, want ErrNoSession", err)
	}
	if _, err := ss.compile(ctx, &CompileRequest{Session: "s", Spec: spec, Profiles: profs, Shards: 4}, 1); err != nil {
		t.Fatal(err)
	}
	keys := ShardKeys(spec.Seed, 4)
	if err := ss.executeStream(ctx, &ExecuteRequest{Session: "s", Shard: -1, ShardKey: keys[0]}, none); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative shard: %v, want ErrInvalid", err)
	}
	if err := ss.executeStream(ctx, &ExecuteRequest{Session: "s", Shard: 1, ShardKey: keys[0]}, none); !errors.Is(err, ErrShardKey) {
		t.Fatalf("mismatched shard key: %v, want ErrShardKey", err)
	}
	if err := ss.executeStream(ctx, &ExecuteRequest{Session: "s", Shard: 1, ShardKey: keys[1]}, none); err != nil {
		t.Fatalf("well-formed empty shard: %v", err)
	}
}

func TestSessionsCompileValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(0)
	ctx := context.Background()
	cases := []struct {
		name string
		req  *CompileRequest
	}{
		{"empty session id", &CompileRequest{Spec: spec, Profiles: profs}},
		{"no spec", &CompileRequest{Session: "s"}},
		{"profile count mismatch", &CompileRequest{Session: "s", Spec: spec, Profiles: profs[:1]}},
		{"nil profile", &CompileRequest{Session: "s", Spec: spec, Profiles: []*profile.Profile{nil, nil}}},
	}
	for _, tc := range cases {
		if _, err := ss.compile(ctx, tc.req, 1); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	ctx := context.Background()
	if _, err := NewCoordinator(ctx, jitteredSpec(), st, Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	bad := jitteredSpec()
	bad.Workloads = nil
	if _, err := NewCoordinator(ctx, bad, st, Config{Workers: localFleet(1)}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	co, err := NewCoordinator(ctx, jitteredSpec(), st, Config{Workers: localFleet(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := co.Shards(); got != 12 {
		t.Fatalf("default shards = %d, want 4× fleet = 12", got)
	}
	if s := co.Stats(); s.LiveWorkers != 3 || s.Jobs != 0 {
		t.Fatalf("fresh stats = %+v", s)
	}
}
