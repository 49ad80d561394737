package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/advisor"
)

func openFile(t *testing.T, dir string, opt Options) *FileStore {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestFileStoreReopen: everything acknowledged before Close is there
// after Open, and a replayed session accepts further appends.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st := openFile(t, dir, Options{})
	ss := testSessionSpec()
	if err := st.AppendCreated(context.Background(), "s1", ss); err != nil {
		t.Fatal(err)
	}
	ev := advisor.Event{Kind: advisor.EventCheckpointed, Time: 50, Work: 25}
	if err := st.AppendEvent(context.Background(), "s1", ev); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(context.Background(), "cell-0", []byte(`{"index":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openFile(t, dir, Options{})
	v, ok, err := st2.Get(context.Background(), "cell-0")
	if err != nil || !ok || string(v) != `{"index":0}` {
		t.Fatalf("reopened get: %q ok=%v err=%v", v, ok, err)
	}
	// A fresh process must replay before appending: the log is not open.
	if err := st2.AppendEvent(context.Background(), "s1", ev); !errors.Is(err, ErrNoSession) {
		t.Fatalf("append before replay: %v, want ErrNoSession", err)
	}
	rep, err := st2.Replay(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
		t.Fatalf("replayed steps %+v", rep.Steps)
	}
	if err := st2.AppendAdvised(context.Background(), "s1"); err != nil {
		t.Fatalf("append after replay: %v", err)
	}
}

// TestFileStoreTornTailRepair: trailing bytes without a newline are a
// crash artifact — replay repairs them away and the log stays usable.
func TestFileStoreTornTailRepair(t *testing.T) {
	for _, b := range Backings(t) {
		t.Run(b.Name, func(t *testing.T) {
			open := func() *FileStore {
				st, err := b.Open(Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				return st
			}
			st := open()
			if err := st.AppendCreated(context.Background(), "s1", testSessionSpec()); err != nil {
				t.Fatal(err)
			}
			ev := advisor.Event{Kind: advisor.EventProgress, Time: 10, Work: 5}
			if err := st.AppendEvent(context.Background(), "s1", ev); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(context.Background(), "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash mid-append on both logs.
			b.AppendRaw(t, filepath.Join("sessions", "s1.log"), []byte("deadbeef {\"kind\":\"ev"))
			b.AppendRaw(t, filepath.Join("results", segmentName(1)), []byte("0123"))

			st2 := open()
			rep, err := st2.Replay(context.Background(), "s1")
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
				t.Fatalf("replayed steps after repair: %+v", rep.Steps)
			}
			if v, ok, err := st2.Get(context.Background(), "k"); err != nil || !ok || string(v) != "v" {
				t.Fatalf("segment value after repair: %q ok=%v err=%v", v, ok, err)
			}
			// The repaired logs accept appends and stay parseable.
			if err := st2.AppendEvent(context.Background(), "s1", ev); err != nil {
				t.Fatal(err)
			}
			if err := st2.Put(context.Background(), "k2", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3 := open()
			rep, err = st3.Replay(context.Background(), "s1")
			if err != nil || len(rep.Steps) != 2 {
				t.Fatalf("after repair+append: steps %+v, err %v", rep.Steps, err)
			}
		})
	}
}

// TestFileStoreCorruptRecord: a damaged terminated line is real
// corruption — a *CorruptError, never a silent skip.
func TestFileStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st := openFile(t, dir, Options{})
	if err := st.AppendCreated(context.Background(), "s1", testSessionSpec()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	slog := filepath.Join(dir, "sessions", "s1.log")
	data, err := os.ReadFile(slog)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte, keeping the line terminated.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(slog, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openFile(t, dir, Options{})
	var ce *CorruptError
	if _, err := st2.Replay(context.Background(), "s1"); !errors.As(err, &ce) {
		t.Fatalf("replay of corrupt log: %v, want *CorruptError", err)
	}
}

// TestFileStoreCorruptSegmentFailsOpen: a corrupt terminated record in a
// segment fails Open — the result index must never silently drop cells.
func TestFileStoreCorruptSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openFile(t, dir, Options{})
	if err := st.Put(context.Background(), "k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "results", segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Open(dir, Options{}); !errors.As(err, &ce) {
		t.Fatalf("open over corrupt segment: %v, want *CorruptError", err)
	}
}

// TestFileStoreSegmentRotation: small segments rotate; every value
// survives a reopen, and sealed segments with torn tails fail Open.
func TestFileStoreSegmentRotation(t *testing.T) {
	for _, b := range Backings(t) {
		t.Run(b.Name, func(t *testing.T) {
			st, err := b.Open(Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			const n = 20
			for i := range n {
				if err := st.Put(context.Background(), fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{'x'}, 32)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := b.fsys.ReadDir(b.Path("results"))
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 || segs[0] != segmentName(1) {
				t.Fatalf("no rotation: segments %v", segs)
			}

			st2, err := b.Open(Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				if _, ok, err := st2.Get(context.Background(), fmt.Sprintf("key-%02d", i)); err != nil || !ok {
					t.Fatalf("key-%02d lost after rotation: ok=%v err=%v", i, ok, err)
				}
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}

			// A torn tail is only legal in the LAST segment; a sealed one refuses.
			b.AppendRaw(t, filepath.Join("results", segs[0]), []byte("torn"))
			var ce *CorruptError
			if _, err := b.Open(Options{SegmentBytes: 128}); !errors.As(err, &ce) {
				t.Fatalf("open over torn sealed segment: %v, want *CorruptError", err)
			}
		})
	}
}

// TestFileStoreInvalidSessionID: path-unsafe ids are refused as
// not-found, never touching the filesystem.
func TestFileStoreInvalidSessionID(t *testing.T) {
	st := openFile(t, t.TempDir(), Options{})
	for _, id := range []string{"", "..", "../evil", "a/b", ".hidden"} {
		if err := st.AppendCreated(context.Background(), id, testSessionSpec()); !errors.Is(err, ErrNoSession) {
			t.Fatalf("create %q: %v, want ErrNoSession wrap", id, err)
		}
		if _, err := st.Replay(context.Background(), id); !errors.Is(err, ErrNoSession) {
			t.Fatalf("replay %q: %v, want ErrNoSession wrap", id, err)
		}
	}
}
