package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// mangler passes a store server's responses through mangle before they
// reach the client, counting attempts per op.
type mangler struct {
	inner  http.Handler
	mangle func(op string, body []byte) []byte
	mu     sync.Mutex
	seen   map[string]int
}

func (m *mangler) attempts(op string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen[op]
}

func (m *mangler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := path.Base(r.URL.Path)
	m.mu.Lock()
	m.seen[op]++
	m.mu.Unlock()
	rec := httptest.NewRecorder()
	m.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if m.mangle != nil {
		body = m.mangle(op, body)
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// newReplayFixture serves a FileStore holding storetest.History as
// session "s" through a mangler, to a client that retries outages.
func newReplayFixture(t *testing.T, mangle func(op string, body []byte) []byte) (*cluster.RemoteStore, *mangler, []advisor.ReplayStep) {
	t.Helper()
	fs, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ss, steps := storetest.History()
	if err := storetest.WriteHistory(context.Background(), fs, "s", ss, steps); err != nil {
		t.Fatal(err)
	}
	m := &mangler{inner: cluster.NewStoreServer(cluster.ServerConfig{Backend: fs}).Handler(), mangle: mangle, seen: make(map[string]int)}
	hs := httptest.NewServer(m)
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rs, m, steps
}

// onReplay applies f to the lines of replay responses only: the
// envelope first, then the records of the session's log image.
func onReplay(f func(lines [][]byte) [][]byte) func(string, []byte) []byte {
	return func(op string, body []byte) []byte {
		if op != "replay" {
			return body
		}
		return bytes.Join(f(bytes.SplitAfter(body, []byte("\n"))), nil)
	}
}

// TestRemoteReplayFileStore: a FileStore session crosses the wire bit
// for bit, and the domain answers still lift to their sentinels.
func TestRemoteReplayFileStore(t *testing.T) {
	ctx := context.Background()
	rs, _, steps := newReplayFixture(t, nil)
	rep, err := rs.Replay(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec == nil || rep.Spec.Policy.Kind != "dpnextfailure" || len(rep.Steps) != len(steps) {
		t.Fatalf("replayed spec %+v with %d steps, want %d", rep.Spec, len(rep.Steps), len(steps))
	}
	for i, s := range rep.Steps {
		want := steps[i]
		if s.Advised != want.Advised || s.Event.Kind != want.Event.Kind || s.Event.Unit != want.Event.Unit ||
			math.Float64bits(s.Event.Time) != math.Float64bits(want.Event.Time) ||
			math.Float64bits(s.Event.Work) != math.Float64bits(want.Event.Work) {
			t.Fatalf("step %d = %+v, want %+v", i, s, want)
		}
	}
	if _, err := rs.Replay(ctx, "ghost"); !errors.Is(err, store.ErrNoSession) {
		t.Fatalf("replay unknown: %v, want ErrNoSession", err)
	}
	if err := rs.Tombstone(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Replay(ctx, "s"); !errors.Is(err, store.ErrTombstoned) {
		t.Fatalf("replay tombstoned: %v, want ErrTombstoned", err)
	}
}

// TestRemoteReplayDamagedImage: a replay response whose image is
// damaged, or holds more or fewer records than its envelope announces,
// is a *store.CorruptError after exactly one attempt. A short image is
// never taken for a shorter history: that would restore an older
// session and serve a stale decision.
func TestRemoteReplayDamagedImage(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(lines [][]byte) [][]byte
	}{
		{"flipped byte in a record", func(lines [][]byte) [][]byte {
			lines[5][20] ^= 0x01
			return lines
		}},
		{"last record dropped", func(lines [][]byte) [][]byte {
			return lines[:len(lines)-2]
		}},
		{"image dropped", func(lines [][]byte) [][]byte {
			return lines[:1]
		}},
		{"last record torn", func(lines [][]byte) [][]byte {
			last := lines[len(lines)-2]
			lines[len(lines)-2] = last[:len(last)/2]
			return lines
		}},
		{"record added", func(lines [][]byte) [][]byte {
			return append(lines, lines[len(lines)-2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs, m, _ := newReplayFixture(t, onReplay(tc.edit))
			rep, err := rs.Replay(context.Background(), "s")
			var ce *store.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay: %+v, %v; want *store.CorruptError", rep, err)
			}
			if errors.Is(err, store.ErrUnavailable) {
				t.Fatal("corruption misclassified as unavailability")
			}
			if got := m.attempts("replay"); got != 1 {
				t.Fatalf("replay attempts = %d, want 1 (corruption is not retried)", got)
			}
		})
	}
}

// TestRemoteReplayNearOldCap: the log image is larger than the step
// array earlier wire versions carried, at worst 1.65 times for a
// history of advised markers. A session whose replay response in that
// format was just under 32 MiB must still replay.
func TestRemoteReplayNearOldCap(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 100 MB through the wire")
	}
	ctx := context.Background()
	ss := testSessionSpec()
	// oldSize is the size of the earlier format's replay response for n
	// advised markers: one frame around {"spec":…,"steps":[…]}.
	oldSize := func(n int) int {
		type oldStep struct {
			Advised bool `json:"advised,omitempty"`
		}
		steps := make([]oldStep, n)
		for i := range steps {
			steps[i].Advised = true
		}
		js, err := json.Marshal(struct {
			Spec  any       `json:"spec"`
			Steps []oldStep `json:"steps"`
		}{ss, steps})
		if err != nil {
			t.Fatal(err)
		}
		return len(store.EncodeFrame(js))
	}
	per := oldSize(2) - oldSize(1)
	n := 1 + (32<<20-1-oldSize(1))/per

	be := store.NewMem()
	t.Cleanup(func() { be.Close() })
	if err := be.AppendCreated(ctx, "long", ss); err != nil {
		t.Fatal(err)
	}
	for range n {
		if err := be.AppendAdvised(ctx, "long"); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(cluster.NewStoreServer(cluster.ServerConfig{Backend: be}).Handler())
	t.Cleanup(hs.Close)
	// The test checks the size cap, not latency: under -race, with other
	// packages' tests sharing a few CPUs, a ~100 MB replay can outlast
	// the default 5-s attempt timeout, so the attempt gets time sized for
	// that.
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rs.Replay(ctx, "long")
	if err != nil {
		t.Fatalf("replay of %d markers (old response %d bytes): %v", n, oldSize(1)+per*(n-1), err)
	}
	if len(rep.Steps) != n || !rep.Steps[n-1].Advised {
		t.Fatalf("replayed %d steps, want %d markers", len(rep.Steps), n)
	}
}

// TestReplayServesLogBytes: after its envelope, the reply to a replay
// is the session's log file byte for byte — for a log of events alone,
// one with advised markers, and one the replay repaired from a torn
// tail, whose reply ends at its last acknowledged record — and the
// reply carries its length.
func TestReplayServesLogBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, steps := storetest.History()
	var events []advisor.ReplayStep
	for _, s := range steps {
		if !s.Advised {
			events = append(events, s)
		}
	}
	for id, h := range map[string][]advisor.ReplayStep{"clean": events, "advised": steps, "torn": steps} {
		if err := storetest.WriteHistory(ctx, fs, id, ss, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := func(id string) string { return filepath.Join(dir, "sessions", id+".log") }
	acked, err := os.ReadFile(logPath("torn"))
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves half a record after the acknowledged ones.
	f, err := os.OpenFile(logPath("torn"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`0badc0de {"kind":"ev`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fs, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	hs := httptest.NewServer(cluster.NewStoreServer(cluster.ServerConfig{Backend: fs}).Handler())
	t.Cleanup(hs.Close)

	for _, id := range []string{"clean", "advised", "torn"} {
		resp, err := http.Post(hs.URL+"/store/v1/replay", "application/x-ndjson",
			bytes.NewReader(store.EncodeFrame([]byte(`{"id":"`+id+`"}`))))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", id, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", id, resp.ContentLength, len(body))
		}
		image := body[bytes.IndexByte(body, '\n')+1:]
		file, err := os.ReadFile(logPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image, file) {
			t.Errorf("%s: reply image of %d bytes differs from the %d-byte log file", id, len(image), len(file))
		}
		if id == "torn" && !bytes.Equal(image, acked) {
			t.Errorf("torn: reply image of %d bytes, want the %d acknowledged bytes", len(image), len(acked))
		}
	}
}

// cutFirstReply serves inner, counting replay attempts, but sends only
// the first half of the first replay reply while declaring its whole
// length: the connection closes before the body is complete.
func cutFirstReply(inner http.Handler, attempts *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if path.Base(r.URL.Path) == "replay" && attempts.Add(1) == 1 {
			body = body[:len(body)/2]
		}
		w.Header().Set("Content-Length", strconv.Itoa(rec.Body.Len()))
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// TestRemoteReplayShortReply: a reply that ends before its
// Content-Length is an outage, not corruption: the replay is retried,
// and the next whole reply restores the session. Without retries the
// cut answers ErrUnavailable.
func TestRemoteReplayShortReply(t *testing.T) {
	ctx := context.Background()
	be := store.NewMem()
	t.Cleanup(func() { be.Close() })
	ss, steps := storetest.History()
	if err := storetest.WriteHistory(ctx, be, "s", ss, steps); err != nil {
		t.Fatal(err)
	}
	inner := cluster.NewStoreServer(cluster.ServerConfig{Backend: be}).Handler()

	var attempts atomic.Int32
	hs := httptest.NewServer(cutFirstReply(inner, &attempts))
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rs.Replay(ctx, "s")
	if err != nil {
		t.Fatalf("replay after one cut reply: %v", err)
	}
	if len(rep.Steps) != len(steps) {
		t.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(steps))
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("replay attempts = %d, want 2 (the cut one retried)", got)
	}

	var attempts1 atomic.Int32
	hs1 := httptest.NewServer(cutFirstReply(inner, &attempts1))
	t.Cleanup(hs1.Close)
	rs1, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs1.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs1.Replay(ctx, "s")
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("cut reply without retries: %v, want ErrUnavailable", err)
	}
	var ce *store.CorruptError
	if errors.As(err, &ce) {
		t.Fatal("cut reply misclassified as corruption")
	}
}

// TestRemoteReplayOverCapLength: a reply whose Content-Length is past
// the replay cap answers ErrResponseTooLarge from its header, after one
// attempt, without reading the body: this one's body never comes, so a
// client that waited for it would time out instead.
func TestRemoteReplayOverCapLength(t *testing.T) {
	release := make(chan struct{})
	var attempts atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Length", strconv.Itoa(cluster.MaxReplayBytes+1))
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(func() { close(release) }) // before hs.Close, which waits for the handler
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL, Retries: 2, Backoff: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Replay(context.Background(), "s")
	if !errors.Is(err, cluster.ErrResponseTooLarge) {
		t.Fatalf("over-cap Content-Length: %v, want ErrResponseTooLarge", err)
	}
	if errors.Is(err, store.ErrUnavailable) {
		t.Fatal("over-cap reply misclassified as unavailability")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (an over-cap reply is not retried)", got)
	}
}
