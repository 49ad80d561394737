package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
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
