package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// testSessionSpec is a minimal valid session document.
func testSessionSpec() *spec.SessionSpec {
	return &spec.SessionSpec{
		Name: "remote-session",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
		},
		Policy: spec.PolicySpec{Kind: "young"},
	}
}

// remoteFixture is a store server over an in-memory backend plus a
// client mounted on it.
type remoteFixture struct {
	backend storetest.LeasedStore
	server  *cluster.StoreServer
	http    *httptest.Server
	remote  *cluster.RemoteStore
	clock   *obs.FakeClock
}

func newRemoteFixture(t *testing.T, cfg cluster.RemoteConfig) *remoteFixture {
	t.Helper()
	clock := storetest.NewClock()
	be := store.NewMem(store.Options{Clock: clock})
	sv := cluster.NewStoreServer(cluster.ServerConfig{Backend: be})
	hs := httptest.NewServer(sv.Handler())
	t.Cleanup(func() { hs.Close(); be.Close() })
	cfg.BaseURL = hs.URL
	rs, err := cluster.NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &remoteFixture{backend: be, server: sv, http: hs, remote: rs, clock: clock}
}

// TestRemoteStoreLeaseContract: the full backend-agnostic lease suite
// over the wire — the same subtests FileStore passes on disk and in
// memory, which is what makes "lease" mean one thing fleet-wide.
func TestRemoteStoreLeaseContract(t *testing.T) {
	storetest.RunLeaseSuite(t, func(t *testing.T) storetest.Harness {
		fx := newRemoteFixture(t, cluster.RemoteConfig{})
		return storetest.Harness{Store: fx.remote, Clock: fx.clock}
	})
}

// TestRemoteSessionLogRoundTrip: the session-log grammar holds across
// the wire, and every domain answer unwraps to its store sentinel.
func TestRemoteSessionLogRoundTrip(t *testing.T) {
	ctx := context.Background()
	fx := newRemoteFixture(t, cluster.RemoteConfig{})
	rs := fx.remote
	ss := testSessionSpec()

	if err := rs.AppendCreated(ctx, "s1", ss); err != nil {
		t.Fatal(err)
	}
	if err := rs.AppendCreated(ctx, "s1", ss); !errors.Is(err, store.ErrSessionExists) {
		t.Fatalf("second create: %v, want ErrSessionExists", err)
	}
	if err := rs.AppendAdvised(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	ev1 := advisor.Event{Kind: advisor.EventFailure, Time: 100, Unit: 0}
	ev2 := advisor.Event{Kind: advisor.EventRecovered, Time: 220}
	for _, ev := range []advisor.Event{ev1, ev2} {
		if err := rs.AppendEvent(ctx, "s1", ev); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := rs.Replay(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec == nil || rep.Spec.Name != ss.Name {
		t.Fatalf("replayed spec %+v", rep.Spec)
	}
	want := []advisor.ReplayStep{{Advised: true}, {Event: ev1}, {Event: ev2}}
	if len(rep.Steps) != len(want) {
		t.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(want))
	}
	for i, stp := range rep.Steps {
		if stp != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, stp, want[i])
		}
	}
	if _, err := rs.Replay(ctx, "ghost"); !errors.Is(err, store.ErrNoSession) {
		t.Fatalf("replay unknown: %v, want ErrNoSession", err)
	}

	if err := rs.Tombstone(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Replay(ctx, "s1"); !errors.Is(err, store.ErrTombstoned) {
		t.Fatalf("replay tombstoned: %v, want ErrTombstoned", err)
	}

	// The result KV rides the same wire.
	if err := rs.Put(ctx, "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := rs.Get(ctx, "k1")
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("get: %q ok=%v err=%v", got, ok, err)
	}
	if _, ok, err := rs.Get(ctx, "miss"); err != nil || ok {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}

	st := rs.Stats()
	if st.Appends != 5 || st.Replays != 1 || st.Puts != 1 || st.Gets != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRemoteStoreUnavailable: a dead backend surfaces as
// store.ErrUnavailable — never a corruption, never an opaque failure —
// on idempotent and non-idempotent ops alike, and Stats falls back to
// its cached snapshot instead of erroring.
func TestRemoteStoreUnavailable(t *testing.T) {
	ctx := context.Background()
	fx := newRemoteFixture(t, cluster.RemoteConfig{Retries: -1})
	if err := fx.remote.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := fx.remote.Stats() // caches a snapshot while the server is up
	fx.http.Close()

	if err := fx.remote.AppendCreated(ctx, "s1", testSessionSpec()); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("append to dead backend: %v, want ErrUnavailable", err)
	}
	if _, _, err := fx.remote.Get(ctx, "k"); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("get from dead backend: %v, want ErrUnavailable", err)
	}
	var ce *store.CorruptError
	if _, _, err := fx.remote.Get(ctx, "k"); errors.As(err, &ce) {
		t.Fatalf("outage misclassified as corruption: %v", err)
	}
	if got := fx.remote.Stats(); got != before {
		t.Fatalf("stats during outage = %+v, want cached %+v", got, before)
	}
}

// flakyHandler fails the first n requests per op with 503, then
// delegates, counting attempts per op.
type flakyHandler struct {
	inner http.Handler
	n     int
	mu    sync.Mutex
	seen  map[string]int
}

func (f *flakyHandler) attempts(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[op]
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := path.Base(r.URL.Path)
	f.mu.Lock()
	attempt := f.seen[op]
	f.seen[op]++
	f.mu.Unlock()
	if attempt < f.n {
		http.Error(w, "backend briefly down", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestRemoteRetryClassification pins the retry contract: idempotent
// operations ride out a brief outage; session-log appends fail on the
// first transport error and are attempted exactly once, because a
// landed-but-unacknowledged append would be duplicated by a retry.
func TestRemoteRetryClassification(t *testing.T) {
	ctx := context.Background()
	be := store.NewMem(store.Options{Clock: storetest.NewClock()})
	t.Cleanup(func() { be.Close() })
	sv := cluster.NewStoreServer(cluster.ServerConfig{Backend: be})
	flaky := &flakyHandler{inner: sv.Handler(), n: 2, seen: make(map[string]int)}
	hs := httptest.NewServer(flaky)
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Two failures, two retries: the idempotent ops succeed.
	if err := rs.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("put through flaky backend: %v", err)
	}
	if got := flaky.attempts("put"); got != 3 {
		t.Fatalf("put attempts = %d, want 3", got)
	}
	if _, err := rs.AcquireLease(ctx, "cell", "w", time.Minute); err != nil {
		t.Fatalf("acquire through flaky backend: %v", err)
	}
	if got := flaky.attempts("lease-acquire"); got != 3 {
		t.Fatalf("acquire attempts = %d, want 3", got)
	}

	// The append is not retried: one attempt, ErrUnavailable.
	if err := rs.AppendCreated(ctx, "s1", testSessionSpec()); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("append through flaky backend: %v, want ErrUnavailable", err)
	}
	if got := flaky.attempts("created"); got != 1 {
		t.Fatalf("created attempts = %d, want exactly 1 (appends must not be retried)", got)
	}
}

// TestRemoteCorruptResponse: a response that fails its checksum is a
// *store.CorruptError — loud, typed, and never retried (retrying could
// mask real corruption).
func TestRemoteCorruptResponse(t *testing.T) {
	ctx := context.Background()
	var attempts int
	var mu sync.Mutex
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		io.WriteString(w, "deadbeef {\"not\":\"a valid frame\"}\n")
	}))
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rs.Get(ctx, "k")
	var ce *store.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt response: %v, want *store.CorruptError", err)
	}
	if errors.Is(err, store.ErrUnavailable) {
		t.Fatal("corruption misclassified as unavailability")
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (corruption is not retried)", attempts)
	}
}

// TestRemoteOversizedResponse: a response larger than the wire cap is
// reported as ErrResponseTooLarge — not as corruption (the backend's
// log is intact; only the wire cannot carry it) and not as an outage
// (a retry answers the same bytes), so it is attempted exactly once.
// The response outgrows the replay cap, the largest one.
func TestRemoteOversizedResponse(t *testing.T) {
	ctx := context.Background()
	var attempts int
	var mu sync.Mutex
	chunk := bytes.Repeat([]byte("x"), 1<<20)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		for written := 0; written <= cluster.MaxReplayBytes; written += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Replay(ctx, "long-lived-session")
	if !errors.Is(err, cluster.ErrResponseTooLarge) {
		t.Fatalf("oversized response: %v, want ErrResponseTooLarge", err)
	}
	var ce *store.CorruptError
	if errors.As(err, &ce) {
		t.Fatal("oversized response misclassified as corruption")
	}
	if errors.Is(err, store.ErrUnavailable) {
		t.Fatal("oversized response misclassified as unavailability")
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (an over-cap response is not retried)", attempts)
	}
}

// TestRemoteStoreClosed: a closed client fails fast with ErrClosed
// without touching the network.
func TestRemoteStoreClosed(t *testing.T) {
	fx := newRemoteFixture(t, cluster.RemoteConfig{})
	if err := fx.remote.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fx.remote.Put(context.Background(), "k", []byte("v")); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("put on closed client: %v, want ErrClosed", err)
	}
}

// TestStoreServerBadRequest: an undecodable or malformed request is a
// plain 400 — the server executed nothing — and the client reports it
// loudly rather than as an outage.
func TestStoreServerBadRequest(t *testing.T) {
	fx := newRemoteFixture(t, cluster.RemoteConfig{})
	resp, err := http.Post(fx.http.URL+"/store/v1/replay", "application/x-ndjson",
		strings.NewReader("this is not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage request status = %d, want 400", resp.StatusCode)
	}
}

// TestStoreServerMetricsAndHealth: the operator surface renders the
// lease counters and the probe answers.
func TestStoreServerMetricsAndHealth(t *testing.T) {
	ctx := context.Background()
	fx := newRemoteFixture(t, cluster.RemoteConfig{})
	l, err := fx.remote.AcquireLease(ctx, "cell", "w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.remote.PutLeased(ctx, l, "cell", []byte("v")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fx.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`chkpt_store_server_rpcs_total{op="lease-acquire"} 1`,
		`chkpt_store_server_rpcs_total{op="put-leased"} 1`,
		"chkpt_store_lease_acquired_total 1",
		"chkpt_store_lease_stale_total 0",
		"chkpt_store_puts_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(fx.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}
