package cluster_test

import (
	"context"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

// scrape renders h's GET /metrics.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

// sampleValue returns the value of the unlabelled sample name in an
// exposition.
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s in:\n%s", name, text)
	return 0
}

// TestStoreServerStageHistograms: the store server measures the work it
// does. The fsyncs of a created and an event append (the serving tier's
// checkpoint cost C) and the replay (its recovery cost R) count on the
// store server's own /metrics, not only on the replica that asked.
func TestStoreServerStageHistograms(t *testing.T) {
	ctx := context.Background()
	fs, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	sv := cluster.NewStoreServer(cluster.ServerConfig{Backend: fs})
	hs := httptest.NewServer(sv.Handler())
	t.Cleanup(hs.Close)
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL})
	if err != nil {
		t.Fatal(err)
	}

	if err := rs.AppendCreated(ctx, "s1", testSessionSpec()); err != nil {
		t.Fatal(err)
	}
	if err := rs.AppendEvent(ctx, "s1", advisor.Event{Kind: advisor.EventProgress, Time: 10, Work: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Replay(ctx, "s1"); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, sv.Handler())
	if n := sampleValue(t, text, "chkpt_store_fsync_seconds_count"); n < 2 {
		t.Errorf("chkpt_store_fsync_seconds_count = %v, want >= 2", n)
	}
	if n := sampleValue(t, text, "chkpt_store_replay_seconds_count"); n < 1 {
		t.Errorf("chkpt_store_replay_seconds_count = %v, want >= 1", n)
	}
}

// TestReplicaPreRendersWireOps pins the replica's copy of the wire
// operation list: a fresh replica's scrape renders
// chkpt_remote_store_rpc_seconds, for both outcomes, for exactly the
// operations the store server serves.
func TestReplicaPreRendersWireOps(t *testing.T) {
	s := service.New(service.Config{Logger: slog.New(slog.DiscardHandler)})
	t.Cleanup(s.Close)
	series := regexp.MustCompile(`^chkpt_remote_store_rpc_seconds_count\{op="([^"]*)",result="([^"]*)"\} 0$`)
	got := map[string][]string{}
	for _, line := range strings.Split(scrape(t, s.Handler()), "\n") {
		if m := series.FindStringSubmatch(line); m != nil {
			got[m[2]] = append(got[m[2]], m[1])
		}
	}
	want := slices.Sorted(slices.Values(cluster.WireOps))
	for _, result := range []string{"ok", "error"} {
		if ops := slices.Sorted(slices.Values(got[result])); !slices.Equal(ops, want) {
			t.Errorf("result=%q pre-renders ops %v, want %v", result, ops, want)
		}
	}
	if len(got) != 2 {
		t.Errorf("pre-rendered results %v, want ok and error", slices.Sorted(maps.Keys(got)))
	}
}
