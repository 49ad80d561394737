package store_test

import (
	"context"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// BenchmarkFileStoreReplay measures FileStore.Replay of one 282-record
// session log (storetest.History): the read, the frame checks and the
// record decoding, the store's share of a session restore.
func BenchmarkFileStoreReplay(b *testing.B) {
	ctx := context.Background()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ss, steps := storetest.History()
	if err := storetest.WriteHistory(ctx, st, "s", ss, steps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := st.Replay(ctx, "s")
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Steps) != len(steps) {
			b.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(steps))
		}
	}
}

// BenchmarkStoreAppendMem is the append rung on a MemStore: the
// store's locking without any I/O.
func BenchmarkStoreAppendMem(b *testing.B) {
	storetest.BenchAppend(b, func(*testing.B) store.SessionLog { return store.NewMem() })
}

// BenchmarkStoreAppendFile is the append rung on a FileStore: one
// write and one fsync per event, on /dev/shm where it exists.
func BenchmarkStoreAppendFile(b *testing.B) {
	storetest.BenchAppend(b, func(b *testing.B) store.SessionLog {
		st, err := store.Open(storetest.ShmDir(b), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	})
}
