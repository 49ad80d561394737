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
