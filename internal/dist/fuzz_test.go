package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"synapse/internal/httpsvc"
	"synapse/internal/scenario"
)

func postBody(s http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// FuzzWorkerRequest sends arbitrary bodies to /v1/compile and /v1/execute
// of a worker holding a compiled session: the server must never panic, and
// every answer is a success or a structured error.
func FuzzWorkerRequest(f *testing.F) {
	st := seedStore(f, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer(ServerConfig{Workers: 1})
	compile, err := json.Marshal(&CompileRequest{Session: "s", Spec: spec, Profiles: profs, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	if rec := postBody(s, "/v1/compile", compile); rec.Code != http.StatusOK {
		f.Fatalf("seed compile: %d %s", rec.Code, rec.Body)
	}
	keys := ShardKeys(spec.Seed, 2)
	req := ExecuteRequest{Session: "s", Shard: 0, ShardKey: keys[0], Jobs: shardJobs(f, keys, 0, 2)}
	execute, _ := json.Marshal(&req)
	// An older coordinator's body: the retired "stream" flag is ignored.
	legacy := append([]byte(`{"stream":true,`), execute[1:]...)

	f.Add(false, compile)
	f.Add(true, execute)
	f.Add(true, legacy)
	f.Add(false, []byte(`{"session":"s","spec":{},"shards":-1}`))
	f.Add(true, []byte(`{"session":"s","shard":0,"shard_key":0,"jobs":[{"w":7}]}`))
	f.Add(true, []byte(`{"session":"ghost"}`))
	f.Add(false, []byte(`{not json`))

	f.Fuzz(func(t *testing.T, isExecute bool, body []byte) {
		path := "/v1/compile"
		if isExecute {
			path = "/v1/execute"
		}
		rec := postBody(s, path, body)
		if rec.Code/100 == 2 {
			return
		}
		var er httpsvc.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
			t.Fatalf("POST %s: status %d without a structured error: %q", path, rec.Code, rec.Body)
		}
	})
}

// replay is a transport answering every request with one NDJSON body.
type replay []byte

func (b replay) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// FuzzExecuteStream replays arbitrary NDJSON to HTTPWorker.ExecuteStream:
// the client must either fail or have emitted exactly as many outcomes as
// the stream's terminal done line reports.
func FuzzExecuteStream(f *testing.F) {
	one := `{"tx":5,"busy":[3,0,1,2],"consumed":{}}`
	f.Add([]byte(`{"outcomes":[` + one + `,{"tx":1,"busy":[1,0,0,0]}]}` + "\n" + `{"outcomes":[` + one + `]}` + "\n" + `{"done":true,"n":3}` + "\n"))
	f.Add([]byte(`{"done":true,"n":0}`))
	f.Add([]byte(`{"outcomes":[` + one + `]}` + "\n")) // truncated: no done line
	f.Add([]byte(`{"outcomes":[` + one + `]}` + "\n" + `{"done":true,"n":2}`))
	f.Add([]byte(`{"error":"dist: session evicted","code":"no_session"}`))
	f.Add([]byte(`{"outcomes":[null]}{"done":true,"n":1}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"outcomes":[{"tx":5,"busy":{"compute":3}}]}` + "\n" + `{"done":true,"n":1}`)) // retired map form

	f.Fuzz(func(t *testing.T, body []byte) {
		w := NewHTTPWorker("http://worker", &http.Client{Transport: replay(body)})
		emitted := 0
		err := w.ExecuteStream(context.Background(), &ExecuteRequest{Session: "s"}, func(outs []*scenario.Outcome) error {
			emitted += len(outs)
			return nil
		})
		if err != nil {
			return
		}
		// Success: the first terminal line must be a done line counting
		// exactly the outcomes emitted before it.
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			var line StreamChunk
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("ExecuteStream succeeded on a stream with no done line: %q", body)
			}
			if line.Error != "" {
				t.Fatalf("ExecuteStream succeeded past an in-band error: %q", body)
			}
			if line.Done {
				if line.N != emitted {
					t.Fatalf("emitted %d outcomes, done line says %d: %q", emitted, line.N, body)
				}
				return
			}
		}
	})
}
