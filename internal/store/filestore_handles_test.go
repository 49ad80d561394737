package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
)

// hookFS is osFS with a tally of open handles and hooks that run before
// a log's Write, Sync or Truncate. A Sync or Truncate hook's error fails
// the call; a Write hook's error fails it after the first n bytes of the
// len-byte record are written. Hooks are set before the store is used.
type hookFS struct {
	osFS
	beforeWrite                func(name string, len int) (n int, err error)
	beforeSync, beforeTruncate func(name string) error

	mu          sync.Mutex
	open, opens int // handles open now, and opened in all
}

func (h *hookFS) OpenFile(name string, flag int, perm fs.FileMode) (logFile, error) {
	f, err := h.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.open++
	h.opens++
	h.mu.Unlock()
	return &hookFile{logFile: f, fs: h, name: name}, nil
}

func (h *hookFS) counts() (open, opens int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.open, h.opens
}

type hookFile struct {
	logFile
	fs   *hookFS
	name string
}

func (f *hookFile) Write(p []byte) (int, error) {
	if f.fs.beforeWrite != nil {
		if n, err := f.fs.beforeWrite(f.name, len(p)); err != nil {
			n, _ = f.logFile.Write(p[:n])
			return n, err
		}
	}
	return f.logFile.Write(p)
}

func (f *hookFile) Sync() error {
	if f.fs.beforeSync != nil {
		if err := f.fs.beforeSync(f.name); err != nil {
			return err
		}
	}
	return f.logFile.Sync()
}

func (f *hookFile) Truncate(size int64) error {
	if f.fs.beforeTruncate != nil {
		if err := f.fs.beforeTruncate(f.name); err != nil {
			return err
		}
	}
	return f.logFile.Truncate(size)
}

func (f *hookFile) Close() error {
	f.fs.mu.Lock()
	f.fs.open--
	f.fs.mu.Unlock()
	return f.logFile.Close()
}

// openShm opens a FileStore on /dev/shm where it exists: the tests
// below make hundreds of fsyncs, which tmpfs answers at once.
func openShm(t *testing.T) *FileStore {
	t.Helper()
	dir := t.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if d, err := os.MkdirTemp("/dev/shm", "chkpt-store-test-"); err == nil {
			t.Cleanup(func() { os.RemoveAll(d) })
			dir = d
		}
	}
	return openFile(t, dir, Options{})
}

// within fails the test unless done closes within a generous bound.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete while another session's fsync was blocked", what)
	}
}

// TestFileStoreBlockedFsyncBlocksOnlyItsSession: while one session's
// fsync hangs, an append and a replay on another session and a create
// of a third still complete. A store-wide lock held across the fsync
// blocks all three.
func TestFileStoreBlockedFsyncBlocksOnlyItsSession(t *testing.T) {
	ctx := context.Background()
	st := openShm(t)
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	st.files = &hookFS{beforeSync: func(name string) error {
		if armed.Load() && filepath.Base(name) == "slow.log" {
			armed.Store(false)
			close(entered)
			<-release
		}
		return nil
	}}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	for _, id := range []string{"slow", "fast"} {
		if err := st.AppendCreated(ctx, id, testSessionSpec()); err != nil {
			t.Fatal(err)
		}
	}
	ev := advisor.Event{Kind: advisor.EventProgress, Time: 10, Work: 5}
	armed.Store(true)
	slowErr := make(chan error, 1)
	go func() { slowErr <- st.AppendEvent(ctx, "slow", ev) }()
	<-entered

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		if err := st.AppendEvent(ctx, "fast", ev); err != nil {
			t.Errorf("append on another session: %v", err)
		}
	}()
	within(t, appended, "an append on another session")
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		if rep, err := st.Replay(ctx, "fast"); err != nil || len(rep.Steps) != 1 {
			t.Errorf("replay of another session: %+v, %v", rep, err)
		}
	}()
	within(t, replayed, "a replay of another session")
	created := make(chan struct{})
	go func() {
		defer close(created)
		if err := st.AppendCreated(ctx, "new", testSessionSpec()); err != nil {
			t.Errorf("create of another session: %v", err)
		}
	}()
	within(t, created, "a create of another session")

	unblock()
	if err := <-slowErr; err != nil {
		t.Fatalf("blocked append, once released: %v", err)
	}
	if rep, err := st.Replay(ctx, "slow"); err != nil || len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
		t.Fatalf("replay of the released session: %+v, %v", rep, err)
	}
}

// TestFileStoreConcurrentAppendReplayTombstone runs 64 writers on
// sessions of their own, pairs of writers on shared sessions, replays of
// both while they write, and tombstones that land mid-stream. Every
// acknowledged record replays exactly once and in its writer's order,
// and no replay cuts an acknowledged record away as a torn tail. Run it
// with -race.
func TestFileStoreConcurrentAppendReplayTombstone(t *testing.T) {
	ctx := context.Background()
	st := openShm(t)
	const (
		solo, pairs, tombed = 64, 8, 8 // the first tombed solo sessions get a tombstone
		perWriter           = 12
	)
	soloID := func(i int) string { return fmt.Sprintf("w%02d", i) }
	pairID := func(i int) string { return fmt.Sprintf("p%d", i) }
	// acked[id][writer] counts the writer's acknowledged events; a writer
	// stamps its k-th event Time k+1 and Work writer.
	var mu sync.Mutex
	acked := map[string][]int{}
	for i := range solo + pairs {
		id := soloID(i)
		if i >= solo {
			id = pairID(i - solo)
		}
		if err := st.AppendCreated(ctx, id, testSessionSpec()); err != nil {
			t.Fatal(err)
		}
		acked[id] = make([]int, 2)
	}
	var wg sync.WaitGroup
	write := func(id string, writer int) {
		defer wg.Done()
		for k := range perWriter {
			ev := advisor.Event{Kind: advisor.EventProgress, Time: float64(k + 1), Work: float64(writer)}
			err := st.AppendEvent(ctx, id, ev)
			if errors.Is(err, ErrTombstoned) {
				return
			}
			if err != nil {
				t.Errorf("append %s writer %d: %v", id, writer, err)
				return
			}
			mu.Lock()
			acked[id][writer]++
			mu.Unlock()
		}
	}
	// check verifies that steps hold, for each writer, its events 1..n in
	// order with nothing repeated, and returns the counts n.
	check := func(id string, steps []advisor.ReplayStep) []int {
		seen := make([]int, 2)
		for _, s := range steps {
			w := int(s.Event.Work)
			if s.Advised || w < 0 || w > 1 || s.Event.Time != float64(seen[w]+1) {
				t.Errorf("%s: step %+v out of order after %v", id, s, seen)
				return seen
			}
			seen[w]++
		}
		return seen
	}
	for i := range solo {
		wg.Add(1)
		go write(soloID(i), 0)
	}
	for i := range pairs {
		wg.Add(2)
		go write(pairID(i), 0)
		go write(pairID(i), 1)
	}
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 40 {
				id := pairID((r + k) % pairs)
				if k%2 == 1 {
					id = soloID(tombed + (r*40+k)%(solo-tombed))
				}
				rep, err := st.Replay(ctx, id)
				if err != nil {
					t.Errorf("replay %s: %v", id, err)
					return
				}
				check(id, rep.Steps)
			}
		}()
	}
	for i := range tombed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Tombstone(ctx, soloID(i)); err != nil {
				t.Errorf("tombstone %s: %v", soloID(i), err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := range solo {
		id := soloID(i)
		if i < tombed {
			if _, err := st.Replay(ctx, id); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("replay of tombstoned %s: %v", id, err)
			}
			if err := st.AppendEvent(ctx, id, advisor.Event{Kind: advisor.EventProgress, Time: 99}); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("append after tombstone %s: %v", id, err)
			}
			// The acknowledged prefix is on disk, whole, before the tombstone.
			data, err := os.ReadFile(st.sessionPath(id))
			if err != nil {
				t.Fatal(err)
			}
			frames, torn, err := decodeFrames(data)
			if err != nil || torn != 0 {
				t.Fatalf("%s: frames %v, torn %d", id, err, torn)
			}
			var steps []advisor.ReplayStep
			for j, fr := range frames {
				rec, err := decodeSessionRecord(fr.payload, fr.off)
				if err != nil {
					t.Fatal(err)
				}
				last := j == len(frames)-1
				if (rec.kind == recTombstone) != last {
					t.Fatalf("%s: record %d kind %v", id, j, rec.kind)
				}
				if rec.kind == recEvent {
					steps = append(steps, advisor.ReplayStep{Event: rec.event})
				}
			}
			if got := check(id, steps); got[0] != acked[id][0] {
				t.Fatalf("%s: %d events before the tombstone, %d acknowledged", id, got[0], acked[id][0])
			}
			continue
		}
		rep, err := st.Replay(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got := check(id, rep.Steps); got[0] != perWriter || acked[id][0] != perWriter {
			t.Fatalf("%s: replayed %d, acknowledged %d, wrote %d", id, got[0], acked[id][0], perWriter)
		}
	}
	for i := range pairs {
		id := pairID(i)
		rep, err := st.Replay(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got := check(id, rep.Steps)
		for w := range 2 {
			if got[w] != perWriter || acked[id][w] != perWriter {
				t.Fatalf("%s writer %d: replayed %d, acknowledged %d", id, w, got[w], acked[id][w])
			}
		}
	}
}

// TestFileStoreHandleBound: more sessions than the handle bound keep at
// most the bound open, counted in the process's descriptor table, and a
// session whose handle was evicted reopens its log on its next append.
func TestFileStoreHandleBound(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	ctx := context.Background()
	st := openShm(t)
	before := fds()
	ev := advisor.Event{Kind: advisor.EventProgress, Time: 1, Work: 1}
	const n = maxHandles + maxHandles/4
	for i := range n {
		id := fmt.Sprintf("s%04d", i)
		if err := st.AppendCreated(ctx, id, testSessionSpec()); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendEvent(ctx, id, ev); err != nil {
			t.Fatal(err)
		}
		// ReadDir holds one descriptor of its own while it counts.
		if i%64 == 63 || i == n-1 {
			if got := fds() - before; got > maxHandles+1 {
				t.Fatalf("after %d sessions, %d more descriptors open than before, bound %d", i+1, got, maxHandles)
			}
		}
	}
	if st.handles.Len() != maxHandles {
		t.Fatalf("handle cache holds %d, bound %d", st.handles.Len(), maxHandles)
	}
	// s0000 was evicted long ago: its next append reopens the log and
	// lands.
	ev2 := advisor.Event{Kind: advisor.EventCheckpointed, Time: 2, Work: 1}
	if err := st.AppendEvent(ctx, "s0000", ev2); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Replay(ctx, "s0000")
	if err != nil || len(rep.Steps) != 2 || rep.Steps[1].Event != ev2 {
		t.Fatalf("evicted session after a reopen: %+v, %v", rep, err)
	}
}

// TestFileStoreCloseReleasesHandles: Close waits for the appends under
// way, every append started after it returns answers ErrClosed, and no
// session handle is left open.
func TestFileStoreCloseReleasesHandles(t *testing.T) {
	ctx := context.Background()
	st := openShm(t)
	h := &hookFS{}
	st.files = h
	const sessions = 16
	for i := range sessions {
		if err := st.AppendCreated(ctx, fmt.Sprintf("s%02d", i), testSessionSpec()); err != nil {
			t.Fatal(err)
		}
	}
	var closed atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{}, sessions)
	for i := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; ; k++ {
				after := closed.Load()
				err := st.AppendEvent(ctx, id, advisor.Event{Kind: advisor.EventProgress, Time: float64(k + 1)})
				if k == 0 {
					started <- struct{}{}
				}
				if err == nil && after {
					t.Errorf("%s: append started after Close returned was acknowledged", id)
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("%s: %v, want ErrClosed", id, err)
					}
					return
				}
			}
		}(fmt.Sprintf("s%02d", i))
	}
	for range sessions {
		<-started
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	if open, _ := h.counts(); open != 0 {
		t.Fatalf("%d session handles open after Close", open)
	}
	wg.Wait()
	if open, _ := h.counts(); open != 0 {
		t.Fatalf("%d session handles open after Close and the appends' return", open)
	}
	if err := st.AppendCreated(ctx, "late", testSessionSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after Close: %v", err)
	}
}

// TestFileStoreFailedAppendDropsHandle: a failed write, a write that
// fails after half the record, or a failed fsync cuts the log back to
// its acknowledged records, closes the session's handle and answers an
// error; the next append opens the log again and lands after the
// acknowledged records, and a replay reads them all.
func TestFileStoreFailedAppendDropsHandle(t *testing.T) {
	for _, call := range []string{"write", "half-write", "sync"} {
		t.Run(call, func(t *testing.T) {
			ctx := context.Background()
			st := openShm(t)
			var fail atomic.Bool
			errInjected := errors.New("injected failure")
			h := &hookFS{}
			switch call {
			case "write", "half-write":
				h.beforeWrite = func(_ string, len int) (int, error) {
					if !fail.CompareAndSwap(true, false) {
						return len, nil
					}
					if call == "write" {
						return 0, errInjected
					}
					return len / 2, errInjected
				}
			case "sync":
				h.beforeSync = func(string) error {
					if fail.CompareAndSwap(true, false) {
						return errInjected
					}
					return nil
				}
			}
			st.files = h
			if err := st.AppendCreated(ctx, "s", testSessionSpec()); err != nil {
				t.Fatal(err)
			}
			acked, err := os.Stat(st.sessionPath("s"))
			if err != nil {
				t.Fatal(err)
			}
			fail.Store(true)
			if err := st.AppendEvent(ctx, "s", advisor.Event{Kind: advisor.EventProgress, Time: 1}); !errors.Is(err, errInjected) {
				t.Fatalf("failed append: %v", err)
			}
			if open, opens := h.counts(); open != 0 || opens != 1 {
				t.Fatalf("after the failed %s: %d handles open, %d opened", call, open, opens)
			}
			if fi, err := os.Stat(st.sessionPath("s")); err != nil || fi.Size() != acked.Size() {
				t.Fatalf("after the failed %s the log holds %v bytes (%v), %d acknowledged", call, fi.Size(), err, acked.Size())
			}
			ev := advisor.Event{Kind: advisor.EventCheckpointed, Time: 2, Work: 1}
			if err := st.AppendEvent(ctx, "s", ev); err != nil {
				t.Fatal(err)
			}
			if open, opens := h.counts(); open != 1 || opens != 2 {
				t.Fatalf("after the next append: %d handles open, %d opened", open, opens)
			}
			// A fresh store reads the log from disk, not through the kept
			// handle's state.
			st2 := openFile(t, st.dir, Options{})
			rep, err := st2.Replay(ctx, "s")
			if err != nil || len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
				t.Fatalf("replay after the failure: %+v, %v", rep, err)
			}
		})
	}
}

// TestFileStoreFailedCutStopsAppends: when a write fails part-way and
// the truncation back to the acknowledged records fails too, the session
// takes no append until a replay has cut the fragment away as a torn
// tail; appends then land after the acknowledged records.
func TestFileStoreFailedCutStopsAppends(t *testing.T) {
	ctx := context.Background()
	st := openShm(t)
	var fail atomic.Bool
	errInjected := errors.New("injected failure")
	st.files = &hookFS{
		beforeWrite: func(_ string, len int) (int, error) {
			if fail.Load() {
				return len / 2, errInjected
			}
			return len, nil
		},
		beforeTruncate: func(string) error {
			if fail.CompareAndSwap(true, false) {
				return errInjected
			}
			return nil
		},
	}
	if err := st.AppendCreated(ctx, "s", testSessionSpec()); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := st.AppendEvent(ctx, "s", advisor.Event{Kind: advisor.EventProgress, Time: 1}); !errors.Is(err, errInjected) {
		t.Fatalf("failed append: %v", err)
	}
	ev := advisor.Event{Kind: advisor.EventCheckpointed, Time: 2, Work: 1}
	if err := st.AppendEvent(ctx, "s", ev); !errors.Is(err, ErrNoSession) {
		t.Fatalf("append after a failed cut: %v, want ErrNoSession", err)
	}
	if rep, err := st.Replay(ctx, "s"); err != nil || len(rep.Steps) != 0 {
		t.Fatalf("replay after a failed cut: %+v, %v", rep, err)
	}
	if err := st.AppendEvent(ctx, "s", ev); err != nil {
		t.Fatal(err)
	}
	st2 := openFile(t, st.dir, Options{})
	if rep, err := st2.Replay(ctx, "s"); err != nil || len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
		t.Fatalf("replay after the repair: %+v, %v", rep, err)
	}
}

// TestFileStoreEvictionSkipsBusySession: an operation that evicts a
// session whose fsync hangs does not wait for it; the busy session files
// its handle again when its append returns, and the cache stays at its
// bound.
func TestFileStoreEvictionSkipsBusySession(t *testing.T) {
	ctx := context.Background()
	st := openShm(t)
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	h := &hookFS{beforeSync: func(name string) error {
		if armed.Load() && filepath.Base(name) == "busy.log" {
			armed.Store(false)
			close(entered)
			<-release
		}
		return nil
	}}
	st.files = h
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	// "busy" is the least recently used of a full cache.
	if err := st.AppendCreated(ctx, "busy", testSessionSpec()); err != nil {
		t.Fatal(err)
	}
	for i := range maxHandles - 1 {
		if err := st.AppendCreated(ctx, fmt.Sprintf("s%04d", i), testSessionSpec()); err != nil {
			t.Fatal(err)
		}
	}
	ev := advisor.Event{Kind: advisor.EventProgress, Time: 10, Work: 5}
	armed.Store(true)
	busyErr := make(chan error, 1)
	go func() { busyErr <- st.AppendEvent(ctx, "busy", ev) }()
	<-entered

	created := make(chan struct{})
	go func() {
		defer close(created)
		if err := st.AppendCreated(ctx, "evictor", testSessionSpec()); err != nil {
			t.Errorf("create that evicts the busy session: %v", err)
		}
	}()
	within(t, created, "a create that evicts the busy session")

	unblock()
	if err := <-busyErr; err != nil {
		t.Fatalf("busy append, once released: %v", err)
	}
	st.mu.Lock()
	cached := st.handles.Len()
	st.mu.Unlock()
	if open, _ := h.counts(); cached != maxHandles || open != maxHandles {
		t.Fatalf("%d handles cached, %d open, bound %d", cached, open, maxHandles)
	}
	if rep, err := st.Replay(ctx, "busy"); err != nil || len(rep.Steps) != 1 || rep.Steps[0].Event != ev {
		t.Fatalf("replay of the busy session: %+v, %v", rep, err)
	}
}
