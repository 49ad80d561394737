package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Options tunes a FileStore.
type Options struct {
	// SegmentBytes is the size at which a result segment is sealed and a
	// new one started. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// Clock measures lease expiry. Nil means the real clock.
	Clock obs.Clock
}

// DefaultSegmentBytes is the default result-segment rotation size.
const DefaultSegmentBytes = 8 << 20

// maxHandles bounds the session-log handles a FileStore keeps open: the
// service's default MaxSessions, so each live session of a replica
// with default settings appends through a handle it keeps.
const maxHandles = 1024

// logFS is the file system under the session logs: every session-log
// file call goes through it. Production uses osFS; tests substitute one
// that blocks or fails a call.
type logFS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (logFile, error)
	Remove(name string) error
	SyncDir(dir string) error
}

// logFile is an open session log.
type logFile interface {
	io.ReaderAt
	io.Writer
	Stat() (fs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (logFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }
func (osFS) SyncDir(dir string) error { return syncDir(dir) }

// fsSession is one session log's in-process state. Its mu serializes
// the log's file I/O and guards f, size, open and tombstoned; the
// store's mu guards refs and elem.
type fsSession struct {
	mu sync.Mutex
	// f is the log's kept O_APPEND handle; nil until the log is opened,
	// and again once it is tombstoned, evicted or its write failed.
	f logFile
	// size is the length of the log's acknowledged records, where a
	// failed append cuts the log back to.
	size int64
	// open: this process created or replayed the log, so it accepts
	// appends.
	open       bool
	tombstoned bool

	refs int           // operations holding or waiting for mu
	elem *list.Element // the entry's place in the handle cache
}

// dropHandle closes the kept handle. Every record written through it
// was fsynced or answered an error, so a failed close loses nothing
// acknowledged.
func (s *fsSession) dropHandle() {
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}

// FileStore is the stdlib-only on-disk backend: framed-JSONL session
// logs under dir/sessions and append-only result segments under
// dir/results (see doc.go for the format, the lock order and crash
// semantics). A single process owns the directory for its lifetime.
type FileStore struct {
	counters
	dir    string
	opt    Options
	files  logFS
	closed atomic.Bool

	// mu guards the session map and the handle cache, and is never held
	// across file I/O: a session's log I/O runs under its own lock,
	// which is taken before mu.
	mu sync.Mutex
	// sessions holds the logs this process has opened (appends to a
	// session the process has never created or replayed are refused),
	// and an entry while an operation on an unknown id is in flight.
	sessions map[string]*fsSession
	// handles lists the sessions that keep a handle, most recently used
	// first, at most maxHandles of them.
	handles *list.List

	// kvMu guards the result index, the active segment and the lease
	// table. It is held across their writes and fsyncs, and is never
	// taken together with mu or a session lock.
	kvMu sync.Mutex
	// idx caches every stored result; segments are the journal, this map
	// is the index, rebuilt from the segments at Open.
	idx map[string][]byte
	// active is the open handle of the last (writable) segment; activeN
	// its sequence number, activeSize its current length.
	active     *os.File
	activeN    int
	activeSize int64
	// lt is the lease table, rebuilt from dir/leases.log at Open so
	// fencing tokens stay monotonic across a store-server restart.
	lt leaseTable
}

// Open mounts (or initializes) a file store rooted at dir.
func Open(dir string, opt Options) (*FileStore, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.Clock == nil {
		opt.Clock = obs.NewRealClock()
	}
	st := &FileStore{
		dir:      dir,
		opt:      opt,
		files:    osFS{},
		sessions: make(map[string]*fsSession),
		handles:  list.New(),
		idx:      make(map[string][]byte),
		lt:       newLeaseTable(),
	}
	for _, sub := range []string{st.sessionsDir(), st.resultsDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := st.loadSegments(); err != nil {
		return nil, err
	}
	if err := st.loadLeases(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *FileStore) sessionsDir() string { return filepath.Join(st.dir, "sessions") }
func (st *FileStore) resultsDir() string  { return filepath.Join(st.dir, "results") }
func (st *FileStore) leasesPath() string  { return filepath.Join(st.dir, "leases.log") }

func (st *FileStore) sessionPath(id string) string {
	return filepath.Join(st.sessionsDir(), id+".log")
}

func segmentName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// ValidID reports whether id is usable as a session id on every
// backend: non-empty, not dot-led, and drawn from [A-Za-z0-9._-] —
// the set that is safe as a FileStore file name. The service checks
// client-chosen session ids against it before they reach any backend,
// so an id accepted over a MemStore is not later refused by a
// FileStore.
func ValidID(id string) error { return validSessionID(id) }

// validSessionID accepts ids that are safe as file names: non-empty,
// not dot-led, and drawn from [A-Za-z0-9._-]. An unsafe id wraps
// ErrNoSession — such an id can never name a stored log, and the read
// paths should answer "not found", not "server error".
func validSessionID(id string) error {
	bad := func() error {
		return fmt.Errorf("store: invalid session id %q: %w", id, ErrNoSession)
	}
	if id == "" || id[0] == '.' {
		return bad()
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return bad()
		}
	}
	return nil
}

// syncDir fsyncs a directory so a freshly created file's entry is
// durable, not just its bytes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSynced writes one record and fsyncs it, the durability protocol
// of every acknowledged record. The fsync — the dominant cost of every
// durable append, the serving tier's checkpoint cost C — gets its own
// span.
func writeSynced(ctx context.Context, f logFile, line []byte) error {
	if _, err := f.Write(line); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, "store.fsync")
	err := f.Sync()
	sp.End()
	return err
}

// session runs fn under session id's lock, and only while the store is
// open. An unknown id gets an entry when create is set (AppendCreated,
// Replay, Tombstone) and answers ErrNoSession otherwise. Afterwards a
// log that is not open gives up its handle, the handle cache files the
// entry, and the handles it evicts are closed once no lock is held.
func (st *FileStore) session(id string, create bool, fn func(s *fsSession) error) error {
	st.mu.Lock()
	if st.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	s := st.sessions[id]
	if s == nil {
		if !create {
			st.mu.Unlock()
			return ErrNoSession
		}
		s = &fsSession{}
		st.sessions[id] = s
	}
	s.refs++
	st.mu.Unlock()

	s.mu.Lock()
	// Close marks the store closed before it closes the handles, each
	// under its session's lock: checked here, no operation that waited
	// for this lock opens a handle or acknowledges a record after Close.
	err := ErrClosed
	if !st.closed.Load() {
		err = fn(s)
	}
	if !s.open {
		s.dropHandle()
	}
	st.mu.Lock()
	s.refs--
	if s.refs == 0 && !s.open && !s.tombstoned {
		delete(st.sessions, id)
	}
	evicted := st.fileHandleLocked(s)
	// The session lock goes before the store lock, so an evictor that
	// finds it held knows its holder has yet to file it (closeEvicted).
	s.mu.Unlock()
	st.mu.Unlock()
	for _, v := range evicted {
		st.closeEvicted(v)
	}
	return err
}

// fileHandleLocked moves a session that keeps a handle to the front of
// the handle cache and takes one that does not out of it. It returns
// the sessions evicted past the bound. Callers hold s.mu and st.mu.
func (st *FileStore) fileHandleLocked(s *fsSession) []*fsSession {
	if s.f == nil {
		if s.elem != nil {
			st.handles.Remove(s.elem)
			s.elem = nil
		}
		return nil
	}
	if s.elem != nil {
		st.handles.MoveToFront(s.elem)
		return nil
	}
	s.elem = st.handles.PushFront(s)
	var evicted []*fsSession
	for st.handles.Len() > maxHandles {
		v := st.handles.Remove(st.handles.Back()).(*fsSession)
		v.elem = nil
		evicted = append(evicted, v)
	}
	return evicted
}

// closeEvicted closes the handle of a session the cache evicted, unless
// an operation has filed it again since. A victim whose lock is held is
// left to its holder, which files it afterwards (session releases the
// session lock before the store lock), so the evicting operation never
// waits for another session's I/O. Callers hold no lock.
func (st *FileStore) closeEvicted(v *fsSession) {
	if !v.mu.TryLock() {
		return
	}
	st.mu.Lock()
	var f logFile
	if v.elem == nil {
		f, v.f = v.f, nil
	}
	v.mu.Unlock()
	st.mu.Unlock()
	if f != nil {
		_ = f.Close()
	}
}

// appendLocked appends one record to s's log, reopening the handle when
// none is kept. A failed write or fsync cuts the log back to its
// acknowledged records, so no fragment sits under the next append, and
// drops the handle, so that append starts from a fresh open. When the
// cut fails too, the log stops taking appends until a replay repairs
// it. Callers hold s.mu.
func (st *FileStore) appendLocked(ctx context.Context, s *fsSession, id string, line []byte) error {
	if s.f == nil {
		f, err := st.files.OpenFile(st.sessionPath(id), os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		s.f = f
	}
	if err := writeSynced(ctx, s.f, line); err != nil {
		if s.f.Truncate(s.size) != nil {
			s.open = false
		}
		s.dropHandle()
		return err
	}
	s.size += int64(len(line))
	st.appends.Add(1)
	return nil
}

func (st *FileStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", "created")
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	line, err := appendSessionRecord(nil, sessionRecord{kind: recCreated, spec: ss})
	if err != nil {
		return fmt.Errorf("store: create session %s: %w", id, err)
	}
	// Replay accepts a record only in its canonical form. A spec whose
	// JSON does not decode back to the same bytes (a string that is not
	// valid UTF-8, say) would leave the log unreadable, so it is refused
	// before it is acknowledged.
	if _, err := decodeSessionRecord(line[len(frameHeader):len(line)-1], 0); err != nil {
		return fmt.Errorf("store: create session %s: spec does not round-trip: %w", id, err)
	}
	path := st.sessionPath(id)
	return st.session(id, true, func(s *fsSession) error {
		f, err := st.files.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("store: create session %s: %w", id, ErrSessionExists)
		}
		if err != nil {
			return fmt.Errorf("store: create session %s: %w", id, err)
		}
		if err := writeSynced(ctx, f, line); err != nil {
			// The record was not acknowledged; drop the partial file so the
			// id is not burned by a half-created log.
			_ = f.Close()
			_ = st.files.Remove(path)
			return fmt.Errorf("store: create session %s: %w", id, err)
		}
		s.f, s.size = f, int64(len(line))
		if err := st.files.SyncDir(st.sessionsDir()); err != nil {
			return fmt.Errorf("store: create session %s: %w", id, err)
		}
		s.open = true
		st.appends.Add(1)
		return nil
	})
}

// AppendEvent appends one event record. An event the log cannot carry
// — a kind that is not one of advisor's four, a non-finite time or
// work — is refused with an error; the service validates every event
// through Session.Observe before it appends, so none it accepts is.
func (st *FileStore) AppendEvent(ctx context.Context, id string, ev advisor.Event) error {
	line, err := appendSessionRecord(nil, sessionRecord{kind: recEvent, event: ev})
	if err != nil {
		return fmt.Errorf("store: append session %s: %w", id, err)
	}
	return st.appendOpen(ctx, id, "event", line)
}

func (st *FileStore) AppendAdvised(ctx context.Context, id string) error {
	line, err := appendSessionRecord(nil, sessionRecord{kind: recAdvised})
	if err != nil {
		return err
	}
	return st.appendOpen(ctx, id, "advised", line)
}

// appendOpen appends one record to a session this process has opened.
func (st *FileStore) appendOpen(ctx context.Context, id, kind string, line []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", kind)
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	err := st.session(id, false, func(s *fsSession) error {
		switch {
		case s.tombstoned:
			return ErrTombstoned
		case !s.open:
			return ErrNoSession
		}
		return st.appendLocked(ctx, s, id, line)
	})
	if err != nil {
		return fmt.Errorf("store: append session %s: %w", id, err)
	}
	return nil
}

func (st *FileStore) Tombstone(ctx context.Context, id string) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", "tombstone")
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	line, err := appendSessionRecord(nil, sessionRecord{kind: recTombstone})
	if err != nil {
		return err
	}
	return st.session(id, true, func(s *fsSession) error {
		// Tombstone does not require the session to be open: a restarted
		// server may reap a session it never rehydrated. Load the log's
		// state (repairing any torn tail) if this process has not seen it.
		if !s.open && !s.tombstoned {
			if _, err := st.loadLocked(s, id); err != nil {
				return err
			}
		}
		if s.tombstoned {
			return fmt.Errorf("store: tombstone session %s: %w", id, ErrTombstoned)
		}
		if err := st.appendLocked(ctx, s, id, line); err != nil {
			return fmt.Errorf("store: tombstone session %s: %w", id, err)
		}
		s.open, s.tombstoned = false, true
		return nil
	})
}

func (st *FileStore) Replay(ctx context.Context, id string) (*SessionReplay, error) {
	_, span := obs.StartSpan(ctx, "store.replay")
	defer span.End()
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return nil, err
	}
	var rep *SessionReplay
	err := st.session(id, true, func(s *fsSession) error {
		var err error
		if !s.tombstoned {
			rep, err = st.loadLocked(s, id)
		}
		if err == nil && s.tombstoned {
			err = fmt.Errorf("store: replay session %s: %w", id, ErrTombstoned)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	st.replays.Add(1)
	return rep, nil
}

// loadLocked reads, repairs and parses s's log through its handle,
// opening one when none is kept, and records whether the log is open or
// tombstoned. It returns the replay, nil when a tombstone ends the log.
// Callers hold s.mu.
func (st *FileStore) loadLocked(s *fsSession, id string) (*SessionReplay, error) {
	if s.f == nil {
		f, err := st.files.OpenFile(st.sessionPath(id), os.O_RDWR|os.O_APPEND, 0)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: replay session %s: %w", id, ErrNoSession)
		}
		if err != nil {
			return nil, fmt.Errorf("store: replay session %s: %w", id, err)
		}
		s.f = f
	}
	data, err := readLog(s.f)
	if err != nil {
		return nil, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return nil, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	s.size = int64(len(data) - torn)
	if torn > 0 {
		// A crash mid-append left an unacknowledged fragment; truncate it
		// away so later appends extend a clean log.
		if err := s.f.Truncate(s.size); err != nil {
			return nil, fmt.Errorf("store: repair session %s: %w", id, err)
		}
	}
	rep, err := replayRecords(frames)
	switch {
	case errors.Is(err, ErrTombstoned):
		s.open, s.tombstoned = false, true
		return nil, nil
	case errors.Is(err, ErrNoSession):
		// The log exists but holds no acknowledged record (crash between
		// create and first write, now repaired to empty).
		return nil, fmt.Errorf("store: replay session %s: %w", id, ErrNoSession)
	case err != nil:
		return nil, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	// The acknowledged records, every one checked and canonical, are the
	// replay's image as they stand: serving it encodes nothing again.
	rep.image = data[:s.size:s.size]
	s.open = true
	return rep, nil
}

// readLog reads a whole session log through its handle.
func readLog(f logFile) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	// ReadAt answers an error whenever it reads less than asked.
	if n, err := f.ReadAt(data, 0); n < len(data) {
		return nil, err
	}
	return data, nil
}

// loadSegments scans dir/results at Open: sealed segments must be
// clean, the last segment may carry a torn tail (repaired by
// truncation), and every surviving record lands in the index.
func (st *FileStore) loadSegments() error {
	entries, err := os.ReadDir(st.resultsDir())
	if err != nil {
		return fmt.Errorf("store: open results: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".log") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		path := filepath.Join(st.resultsDir(), name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		frames, torn, err := decodeFrames(data)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		last := i == len(names)-1
		if torn > 0 {
			if !last {
				return fmt.Errorf("store: open segment %s: %w", name,
					&CorruptError{Offset: len(data) - torn, Reason: "torn tail in a sealed segment"})
			}
			if err := os.Truncate(path, int64(len(data)-torn)); err != nil {
				return fmt.Errorf("store: repair segment %s: %w", name, err)
			}
		}
		for _, fr := range frames {
			rec, err := decodeKVRecord(fr.payload, fr.off)
			if err != nil {
				return fmt.Errorf("store: open segment %s: %w", name, err)
			}
			st.idx[rec.Key] = rec.Val
		}
		var n int
		if _, err := fmt.Sscanf(name, "seg-%06d.log", &n); err == nil && n > st.activeN {
			st.activeN = n
		}
		if last {
			st.activeSize = int64(len(data) - torn)
		}
	}
	if len(names) == 0 {
		st.activeN = 1
		st.activeSize = 0
		return st.openActive(true)
	}
	return st.openActive(false)
}

// openActive opens (creating when fresh) the writable segment.
func (st *FileStore) openActive(create bool) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE
	}
	name := segmentName(st.activeN)
	f, err := os.OpenFile(filepath.Join(st.resultsDir(), name), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %s: %w", name, err)
	}
	st.active = f
	if create {
		if err := syncDir(st.resultsDir()); err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
	}
	return nil
}

func (st *FileStore) Put(ctx context.Context, key string, val []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.put")
	defer span.End()
	span.SetAttr("key", key)
	if key == "" {
		return errors.New("store: put with an empty key")
	}
	line, err := encodeKVRecord(key, val)
	if err != nil {
		return err
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	return st.putLineLocked(ctx, key, val, line)
}

// putLineLocked appends one already-framed result record to the active
// segment (rotating as needed), fsyncs it and indexes the value. The
// caller holds st.kvMu and has already checked closed (and, for fenced
// writes, the lease token).
func (st *FileStore) putLineLocked(ctx context.Context, key string, val, line []byte) error {
	if st.activeSize >= st.opt.SegmentBytes {
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("store: seal segment %s: %w", segmentName(st.activeN), err)
		}
		st.activeN++
		st.activeSize = 0
		if err := st.openActive(true); err != nil {
			return err
		}
	}
	if _, err := st.active.Write(line); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	_, sp := obs.StartSpan(ctx, "store.fsync")
	err := st.active.Sync()
	sp.End()
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	st.activeSize += int64(len(line))
	cp := make([]byte, len(val))
	copy(cp, val)
	st.idx[key] = cp
	st.puts.Add(1)
	return nil
}

func (st *FileStore) Get(_ context.Context, key string) ([]byte, bool, error) {
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return nil, false, ErrClosed
	}
	st.gets.Add(1)
	v, ok := st.idx[key]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true, nil
}

// loadLeases rebuilds the lease table from dir/leases.log at Open.
// Like the session logs, a torn tail is an unacknowledged transition
// repaired by truncation; a terminated-but-bad line is corruption.
// The file is created empty when missing so later appends can open it
// O_APPEND without racing on creation.
func (st *FileStore) loadLeases() error {
	path := st.leasesPath()
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		return syncDir(st.dir)
	}
	if err != nil {
		return fmt.Errorf("store: open leases: %w", err)
	}
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return fmt.Errorf("store: open leases: %w", err)
	}
	for _, fr := range frames {
		rec, err := decodeLeaseRecord(fr.payload, fr.off)
		if err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		s := &leaseState{owner: rec.Owner, token: rec.Token, released: rec.ExpUnixMS == 0}
		if !s.released {
			s.exp = time.UnixMilli(rec.ExpUnixMS)
		}
		st.lt.leases[rec.Key] = s
	}
	// The table needs one live-state record per key; a longer journal is
	// renewal churn from past runs (and a torn tail is an unacknowledged
	// transition). Rewriting it compacted repairs both and keeps the file
	// from growing for the deployment's lifetime.
	if torn > 0 || len(frames) > len(st.lt.leases) {
		if err := st.compactLeases(); err != nil {
			return fmt.Errorf("store: compact leases: %w", err)
		}
	}
	return nil
}

// compactLeases atomically rewrites dir/leases.log as one record per
// key — the lease table's current state, keys sorted for a
// deterministic image — via the tmp + fsync + rename discipline, so a
// crash mid-compaction leaves either the old or the new journal.
func (st *FileStore) compactLeases() error {
	keys := make([]string, 0, len(st.lt.leases))
	for k := range st.lt.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		s := st.lt.leases[k]
		rec := leaseRecord{Key: k, Owner: s.owner, Token: s.token}
		if !s.released {
			rec.ExpUnixMS = s.exp.UnixMilli()
		}
		line, err := encodeLeaseRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	path := st.leasesPath()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(st.dir)
}

// journalLeaseLocked makes key's current lease state durable. It must
// succeed before the transition is acknowledged: a granted lease whose
// token bump did not reach disk could, after a crash, be re-granted
// with a stale token — exactly what fencing exists to prevent.
func (st *FileStore) journalLeaseLocked(ctx context.Context, key string) error {
	s := st.lt.snapshot(key)
	rec := leaseRecord{Key: key, Owner: s.owner, Token: s.token}
	if !s.released {
		rec.ExpUnixMS = s.exp.UnixMilli()
	}
	line, err := encodeLeaseRecord(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(st.leasesPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal lease %s: %w", key, err)
	}
	defer f.Close()
	if err := writeSynced(ctx, f, line); err != nil {
		return fmt.Errorf("store: journal lease %s: %w", key, err)
	}
	return nil
}

func (st *FileStore) AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error) {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "acquire")
	span.SetAttr("key", key)
	if err := validLeaseArgs(key, owner, ttl); err != nil {
		return Lease{}, err
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return Lease{}, ErrClosed
	}
	l, reclaimed, err := st.lt.acquire(key, owner, ttl, st.opt.Clock.Now())
	if err != nil {
		return Lease{}, fmt.Errorf("store: acquire lease %s: %w", key, err)
	}
	if err := st.journalLeaseLocked(ctx, key); err != nil {
		return Lease{}, err
	}
	st.leaseAcquired.Add(1)
	if reclaimed {
		st.leaseReclaimed.Add(1)
	}
	return l, nil
}

func (st *FileStore) RenewLease(ctx context.Context, l Lease, ttl time.Duration) error {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "renew")
	span.SetAttr("key", l.Key)
	if err := validLeaseArgs(l.Key, l.Owner, ttl); err != nil {
		return err
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	if err := st.lt.renew(l, ttl, st.opt.Clock.Now()); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: renew lease %s: %w", l.Key, err))
	}
	if err := st.journalLeaseLocked(ctx, l.Key); err != nil {
		return err
	}
	st.leaseRenewed.Add(1)
	return nil
}

func (st *FileStore) ReleaseLease(ctx context.Context, l Lease) error {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "release")
	span.SetAttr("key", l.Key)
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	if err := st.lt.release(l); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: release lease %s: %w", l.Key, err))
	}
	if err := st.journalLeaseLocked(ctx, l.Key); err != nil {
		return err
	}
	st.leaseReleased.Add(1)
	return nil
}

func (st *FileStore) PutLeased(ctx context.Context, l Lease, key string, val []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.put")
	defer span.End()
	span.SetAttr("key", key)
	span.SetAttr("leased", "true")
	if key == "" {
		return errors.New("store: put with an empty key")
	}
	line, err := encodeKVRecord(key, val)
	if err != nil {
		return err
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	if err := st.lt.check(l); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: fenced put %s: %w", key, err))
	}
	return st.putLineLocked(ctx, key, val, line)
}

// Close closes every session-log handle and the active segment. An
// operation already under way on a session finishes first; every later
// one answers ErrClosed.
func (st *FileStore) Close() error {
	st.mu.Lock()
	if st.closed.Swap(true) {
		st.mu.Unlock()
		return nil
	}
	sessions := make([]*fsSession, 0, len(st.sessions))
	//chkpt:allow determinism -- the handles are closed in any order; nothing observes it
	for _, s := range st.sessions {
		sessions = append(sessions, s)
	}
	st.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		s.dropHandle()
		s.mu.Unlock()
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if st.active != nil {
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("store: close: %w", err)
		}
	}
	return nil
}
