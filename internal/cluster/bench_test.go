package cluster_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// BenchmarkRemoteStoreReplay measures RemoteStore.Replay of one
// 282-record session log (storetest.History) from a StoreServer over a
// FileStore: the backend replay, one loopback HTTP exchange carrying
// the log's bytes and the client's decoding — the wire share of a
// replica's session restore.
func BenchmarkRemoteStoreReplay(b *testing.B) {
	ctx := context.Background()
	fs, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	ss, steps := storetest.History()
	if err := storetest.WriteHistory(ctx, fs, "s", ss, steps); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(cluster.NewStoreServer(cluster.ServerConfig{Backend: fs}).Handler())
	defer hs.Close()
	rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rs.Replay(ctx, "s")
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Steps) != len(steps) {
			b.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(steps))
		}
	}
}

// BenchmarkRemoteStoreAppend is the append rung over the wire: a
// RemoteStore with its default HTTP client, a StoreServer on a loopback
// listener, and a FileStore on /dev/shm where it exists.
func BenchmarkRemoteStoreAppend(b *testing.B) {
	storetest.BenchAppend(b, func(b *testing.B) store.SessionLog {
		fs, err := store.Open(storetest.ShmDir(b), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(cluster.NewStoreServer(cluster.ServerConfig{Backend: fs}).Handler())
		rs, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: hs.URL})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			rs.Close()
			hs.Close()
			fs.Close()
		})
		return rs
	})
}
