package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"synapse/internal/scenario"
	"synapse/internal/testutil"
)

// shardJobs hand-builds n distinct jobs that rendezvous into the given
// shard, so a wire test can execute one shard directly.
func shardJobs(tb testing.TB, keys []uint64, shard, n int) []scenario.Job {
	tb.Helper()
	var jobs []scenario.Job
	for l := 1; len(jobs) < n; l++ {
		if l > 10_000 {
			tb.Fatalf("could not find %d jobs for shard %d", n, shard)
		}
		j := scenario.Job{Workload: 0, LoadBits: math.Float64bits(0.001 * float64(l))}
		if shardOf(jobHash(j), keys) == shard {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestHTTPStreamingExecute pins the NDJSON wire path: a 150-job chunk
// executed against a real daemon arrives as outcome lines of 64, 64 and 22
// plus a terminal done line, and the concatenated lines are exactly what
// the same chunk yields in process.
func TestHTTPStreamingExecute(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, ServerConfig{Workers: 2})
	w := NewHTTPWorker(base, nil)
	ctx := context.Background()
	creq := &CompileRequest{Session: "s", Spec: spec, Profiles: profs, Shards: 2}
	if err := w.Compile(ctx, creq); err != nil {
		t.Fatal(err)
	}
	keys := ShardKeys(spec.Seed, 2)
	req := &ExecuteRequest{Session: "s", Shard: 0, ShardKey: keys[0], Jobs: shardJobs(t, keys, 0, 150)}

	local := NewLocalWorker("local", 1)
	if err := local.Compile(ctx, creq); err != nil {
		t.Fatal(err)
	}
	var want []*scenario.Outcome
	if err := local.ExecuteStream(ctx, req, func(outs []*scenario.Outcome) error {
		want = append(want, outs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []*scenario.Outcome
	var lines []int
	err = w.ExecuteStream(ctx, req, func(outs []*scenario.Outcome) error {
		lines = append(lines, len(outs))
		got = append(got, outs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lines, []int{64, 64, 22}) {
		t.Errorf("stream arrived in outcome lines of %v, want [64 64 22]", lines)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("streamed outcomes differ from in-process execution\nwire:       %s\nin process: %s", b, a)
	}
	// The raw body ends in the done line, counting every outcome.
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rawLines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if n := len(rawLines); n != 4 || rawLines[n-1] != `{"done":true,"n":150}` {
		t.Errorf("execute body has %d lines ending %q, want 4 ending in the done line", n, rawLines[n-1])
	}
	// Execute is the same stream, collected.
	collected, err := w.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := json.Marshal(collected); !reflect.DeepEqual(c, a) {
		t.Errorf("collected outcomes differ from in-process execution\nwire:       %s\nin process: %s", c, a)
	}

	// Failures come back as proper statuses with sentinel codes: before
	// the chunk runs (session, shard key) and while it runs (a job the
	// session cannot resolve is invalid, not a transient worker fault).
	none := func([]*scenario.Outcome) error { return nil }
	err = w.ExecuteStream(ctx, &ExecuteRequest{Session: "ghost"}, none)
	if !errors.Is(err, ErrNoSession) {
		t.Errorf("unknown session over stream: %v, want ErrNoSession", err)
	}
	err = w.ExecuteStream(ctx, &ExecuteRequest{Session: "s", Shard: 0, ShardKey: keys[0] ^ 1}, none)
	if !errors.Is(err, ErrShardKey) {
		t.Errorf("mismatched shard key over stream: %v, want ErrShardKey", err)
	}
	for _, job := range []scenario.Job{{Workload: 99}, {Workload: 0, Machine: "nowhere"}} {
		err = w.ExecuteStream(ctx, &ExecuteRequest{Session: "s", Shard: 0, ShardKey: keys[0], Jobs: []scenario.Job{job}}, none)
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("malformed job %+v over stream: %v, want ErrInvalid", job, err)
		}
	}
}

// TestStreamClientFallbackAndTruncation covers the client against answers
// that are not a complete stream: a plain-JSON body (a server that predates
// streaming), an NDJSON stream that ends without a done line, a done line
// miscounting, and an in-band error — each an error, never a silently
// short result.
func TestStreamClientFallbackAndTruncation(t *testing.T) {
	ctx := context.Background()
	emitCount := 0
	collect := func(outs []*scenario.Outcome) error { emitCount++; return nil }

	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"outcomes":[]}`)
	}))
	defer legacy.Close()
	err := NewHTTPWorker(legacy.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("plain-JSON answer: err = %v, want truncation error", err)
	}

	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"outcomes":[]}`) // a batch line, then EOF: no done line
	}))
	defer cut.Close()
	err = NewHTTPWorker(cut.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("cut stream: err = %v, want truncation error", err)
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"done":true,"n":5}`) // claims 5 outcomes, sent none
	}))
	defer short.Close()
	err = NewHTTPWorker(short.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "done line says") {
		t.Errorf("short stream: err = %v, want count-mismatch error", err)
	}

	inband := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"outcomes":[]}`)
		fmt.Fprintln(w, `{"error":"session evicted mid-chunk","code":"no_session"}`)
	}))
	defer inband.Close()
	err = NewHTTPWorker(inband.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if !errors.Is(err, ErrNoSession) {
		t.Errorf("in-band stream error: err = %v, want ErrNoSession", err)
	}
}

// TestDistRejectsMapFormOutcomes is the wire-format guard: outcomes carry
// per-atom busy time as a fixed array, and a worker still streaming the
// retired map form ("busy":{"compute":…}) — well-formed NDJSON, right
// count, done line and all — must fail the run rather than fold zeroed
// busy times into a report.
func TestDistRejectsMapFormOutcomes(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/compile":
			var req CompileRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(CompileResponse{Session: req.Session, Seed: req.Spec.Seed})
		case "/v1/execute":
			var req ExecuteRequest
			json.NewDecoder(r.Body).Decode(&req)
			w.Header().Set("Content-Type", "application/x-ndjson")
			for range req.Jobs {
				fmt.Fprintln(w, `{"outcomes":[{"tx":1000,"busy":{"compute":1000},"consumed":{}}]}`)
			}
			fmt.Fprintf(w, `{"done":true,"n":%d}`+"\n", len(req.Jobs))
		}
	}))
	defer old.Close()
	defer old.CloseClientConnections()
	rep, err := Run(context.Background(), spec, st, Config{
		Workers: []Worker{NewHTTPWorker(old.URL, nil)},
		Retry:   fastRetry(),
	}, scenario.RunOptions{})
	if err == nil || rep != nil {
		t.Fatalf("map-form outcomes folded: report %v, err %v; want an error and no report", rep != nil, err)
	}
	// Each decode failure marks the worker dead, like any failed chunk,
	// and the fleet-dead error carries that cause.
	if !errors.Is(err, ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
	if !strings.Contains(err.Error(), "decode stream") || !strings.Contains(err.Error(), "busy") {
		t.Errorf("err = %v, want it to name the busy-array decode failure", err)
	}
}
