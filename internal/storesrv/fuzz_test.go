package storesrv

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
)

// FuzzStoreRequest sends arbitrary PUT and batch bodies — plain, gzipped,
// or labelled gzip without being gzip — to the service: it must never
// panic, and every answer is a success or a structured error.
func FuzzStoreRequest(f *testing.F) {
	p := storetest.MkProfile("mdsim", map[string]string{"steps": "1"}, 2)
	put, err := p.Encode()
	if err != nil {
		f.Fatal(err)
	}
	batch, err := json.Marshal(BatchRequest{Profiles: []*profile.Profile{p, nil}, Truncate: true})
	if err != nil {
		f.Fatal(err)
	}
	for enc := uint8(0); enc < 3; enc++ {
		f.Add(put, false, enc)
		f.Add(batch, true, enc)
	}
	f.Add([]byte(`{"command":"x","samples":[{"t":-1}]}`), false, uint8(0))
	f.Add([]byte(`{"profiles":[{"command":""}]}`), true, uint8(0))
	f.Add([]byte(`not json`), false, uint8(1))

	s := New(store.NewShardedWithLimit(2, 4096), Config{})
	f.Fuzz(func(t *testing.T, body []byte, isBatch bool, enc uint8) {
		method, path := http.MethodPut, "/v1/profiles"
		if isBatch {
			method, path = http.MethodPost, "/v1/profiles:batch"
		}
		if enc%3 == 1 {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			_, _ = zw.Write(body)
			_ = zw.Close()
			body = buf.Bytes()
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if enc%3 != 0 {
			req.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code/100 == 2 {
			return
		}
		var er httpsvc.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Code == "" {
			t.Fatalf("%s %s: status %d without a structured error: %q", method, path, w.Code, w.Body)
		}
	})
}
