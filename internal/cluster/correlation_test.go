package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// fetchSpans reads a process's /v1/debug/traces ring.
func fetchSpans(t *testing.T, baseURL string) []obs.Span {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/debug/traces?limit=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
	var tr struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr.Spans
}

// TestCrossProcessTraceCorrelation is the acceptance path for the
// remote-store observability contract: one session creation against a
// service replica mounted on a RemoteStore yields spans carrying the
// caller's X-Request-ID in BOTH processes' trace rings — the replica's
// (http.request plus the store.rpc client spans) and the store
// server's (store.serve) — so an operator can follow one request
// across the process boundary by grepping a single id.
func TestCrossProcessTraceCorrelation(t *testing.T) {
	// The "store process": an in-memory store behind the wire.
	backend := store.NewMem(store.Options{Clock: obs.NewFakeClock(time.Unix(1700000000, 0), time.Millisecond)})
	sv := cluster.NewStoreServer(cluster.ServerConfig{
		Backend: backend,
		Logger:  slog.New(slog.DiscardHandler),
	})
	storeHTTP := httptest.NewServer(sv.Handler())
	t.Cleanup(storeHTTP.Close)

	// The "service process": a replica whose only durable store is the
	// remote one.
	remote, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: storeHTTP.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	s := service.New(service.Config{
		Engine: engine.New(engine.Config{Workers: 2}),
		Store:  remote,
		Logger: slog.New(slog.DiscardHandler),
	})
	svcHTTP := httptest.NewServer(s.Handler())
	t.Cleanup(svcHTTP.Close)

	const reqID = "cross-corr-1"
	body := []byte(`{
  "name": "corr",
  "scenario": {
    "platform": {"preset": "oneproc", "mtbf": 86400},
    "p": 1,
    "dist": {"family": "exponential"}
  },
  "policy": {"kind": "young"}
}`)
	req, err := http.NewRequest(http.MethodPost, svcHTTP.URL+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d: %s", resp.StatusCode, respBody)
	}

	// Replica side: the handler span and at least one store.rpc client
	// span (the AppendCreated hop) under the caller's id.
	svcNames := map[string]int{}
	for _, sp := range fetchSpans(t, svcHTTP.URL) {
		if sp.Request == reqID {
			svcNames[sp.Name]++
		}
	}
	if svcNames["http.request"] == 0 {
		t.Fatalf("service: no http.request span under %q: %v", reqID, svcNames)
	}
	if svcNames["store.rpc"] == 0 {
		t.Fatalf("service: no store.rpc span under %q: %v", reqID, svcNames)
	}

	// Store-server side: the same id crossed the wire and tagged the
	// serve spans, including the created append.
	var served, createdOp int
	for _, sp := range fetchSpans(t, storeHTTP.URL) {
		if sp.Request != reqID || sp.Name != "store.serve" {
			continue
		}
		served++
		for _, a := range sp.Attrs {
			if a.Key == "op" && a.Value == "created" {
				createdOp++
			}
		}
	}
	if served == 0 {
		t.Fatalf("store server: no store.serve span under %q", reqID)
	}
	if createdOp != 1 {
		t.Fatalf("store server: created-op spans under %q = %d, want 1", reqID, createdOp)
	}
}
