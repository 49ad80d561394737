package store_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestMemStoreLeaseContract runs the backend-agnostic lease suite over
// NewMem's store, a FileStore on an in-memory file system.
func TestMemStoreLeaseContract(t *testing.T) {
	storetest.RunLeaseSuite(t, func(t *testing.T) storetest.Harness {
		clock := storetest.NewClock()
		m := store.NewMem(store.Options{Clock: clock})
		t.Cleanup(func() { m.Close() })
		return storetest.Harness{Store: m, Clock: clock}
	})
}

// TestFileStoreLeaseContract runs the same suite over the durable
// backend.
func TestFileStoreLeaseContract(t *testing.T) {
	storetest.RunLeaseSuite(t, func(t *testing.T) storetest.Harness {
		clock := storetest.NewClock()
		st, err := store.Open(t.TempDir(), store.Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return storetest.Harness{Store: st, Clock: clock}
	})
}

// TestFileStoreLeaseTokenSurvivesReopen: the fencing token is durable —
// a store server that crashes and reopens the directory must not
// re-grant a token it has already granted, or a fenced-off writer's
// stale token would become current again.
func TestFileStoreLeaseTokenSurvivesReopen(t *testing.T) {
	for _, b := range store.Backings(t) {
		t.Run(b.Name, func(t *testing.T) {
			ctx := context.Background()
			clock := storetest.NewClock()
			st, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			la, err := st.AcquireLease(ctx, "cell-0", "worker-a", time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// The restarted store sees the lease as expired (well past the ttl)
			// and hands it to a new owner — with a strictly larger token.
			clock.Advance(time.Hour)
			st2, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st2.Close() })
			lb, err := st2.AcquireLease(ctx, "cell-0", "worker-b", time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if lb.Token <= la.Token {
				t.Fatalf("token regressed across reopen: %d then %d", la.Token, lb.Token)
			}
			if err := st2.PutLeased(ctx, la, "cell-0", []byte("stale")); !errors.Is(err, store.ErrLeaseStale) {
				t.Fatalf("pre-restart token accepted after reopen: %v", err)
			}

			// And a lease still live at reopen keeps excluding other owners.
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st3.Close() })
			if _, err := st3.AcquireLease(ctx, "cell-0", "worker-c", time.Minute); !errors.Is(err, store.ErrLeaseHeld) {
				t.Fatalf("live lease not honored after reopen: %v", err)
			}
			if err := st3.RenewLease(ctx, lb, time.Minute); err != nil {
				t.Fatalf("holder's renew after reopen: %v", err)
			}
		})
	}
}

// TestFileStoreLeaseJournalCompaction: leases.log accumulates one
// record per transition (every renewal included), so reopening the
// store compacts it to one record per key — without losing the table:
// the holder keeps excluding other owners and its token keeps working.
// A journal already compact is left alone.
func TestFileStoreLeaseJournalCompaction(t *testing.T) {
	for _, b := range store.Backings(t) {
		t.Run(b.Name, func(t *testing.T) {
			ctx := context.Background()
			clock := storetest.NewClock()
			st, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			l, err := st.AcquireLease(ctx, "job-1", "worker-a", time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if err := st.RenewLease(ctx, l, time.Hour); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			before := b.Size(t, "leases.log")

			st2, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if after := b.Size(t, "leases.log"); after >= before {
				t.Fatalf("journal not compacted: %d bytes before, %d after", before, after)
			}
			// The compacted table is the same table.
			if _, err := st2.AcquireLease(ctx, "job-1", "worker-b", time.Hour); !errors.Is(err, store.ErrLeaseHeld) {
				t.Fatalf("live lease not honored after compaction: %v", err)
			}
			if err := st2.RenewLease(ctx, l, time.Hour); err != nil {
				t.Fatalf("holder's renew after compaction: %v", err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}

			// The renew above appended one record; a reopen compacts back to one
			// record per key and further reopens leave the file byte-stable.
			st3, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if err := st3.Close(); err != nil {
				t.Fatal(err)
			}
			compacted := b.Size(t, "leases.log")
			st4, err := b.Open(store.Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st4.Close() })
			if stable := b.Size(t, "leases.log"); stable != compacted {
				t.Fatalf("compact journal rewritten again: %d bytes then %d", compacted, stable)
			}
		})
	}
}

// TestFrameRoundTrip pins the exported wire-framing helpers to the
// log-record discipline: EncodeFrame/DecodeFrame are inverses, and a
// flipped byte is caught by the checksum.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"op":"replay","id":"s1"}`)
	frame := store.EncodeFrame(payload)
	got, err := store.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip %q, want %q", got, payload)
	}

	bad := append([]byte(nil), frame...)
	bad[len(bad)-2] ^= 0x01
	var ce *store.CorruptError
	if _, err := store.DecodeFrame(bad); !errors.As(err, &ce) {
		t.Fatalf("flipped byte: %v, want *CorruptError", err)
	}
	if _, err := store.DecodeFrame(frame[:len(frame)-1]); !errors.As(err, &ce) {
		t.Fatalf("unterminated frame: %v, want *CorruptError", err)
	}
	if _, err := store.DecodeFrame(append(append([]byte(nil), frame...), frame...)); !errors.As(err, &ce) {
		t.Fatalf("two frames: %v, want *CorruptError", err)
	}
}
