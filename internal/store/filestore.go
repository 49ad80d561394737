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

// logFS is the file system under the store's logs — the session logs,
// the result segments and the lease journal: every file call the
// package makes goes through it. Open uses osFS, NewMem a memFS; tests
// wrap one to block or fail a call.
type logFS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (logFile, error)
	Remove(name string) error
	Rename(oldname, newname string) error
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadDir returns the names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes dir's entries durable: a name created in dir, or
	// renamed into it, survives a crash only once SyncDir returns.
	SyncDir(dir string) error
}

// logFile is an open log.
type logFile interface {
	io.ReaderAt
	io.Writer
	Stat() (fs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system, and the only code in the
// package that calls os.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (logFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error        { return os.Rename(oldname, newname) }
func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fsSession is one session log's in-process state. Its mu serializes
// the log's file I/O and guards the journal, open and tombstoned; the
// store's mu guards refs and elem.
type fsSession struct {
	mu sync.Mutex
	// journal keeps the log's O_APPEND handle: nil until the log is
	// opened, and again once it is tombstoned, evicted or its write
	// failed. Every record written through it was fsynced or answered an
	// error, so closing it loses nothing acknowledged.
	journal
	// open: this process created or replayed the log, so it accepts
	// appends.
	open       bool
	tombstoned bool

	refs int           // operations holding or waiting for mu
	elem *list.Element // the entry's place in the handle cache
}

// FileStore is the store: framed-JSONL session logs under dir/sessions,
// append-only result segments under dir/results and the lease journal
// dir/leases.log (see doc.go for the format, the lock order and crash
// semantics), on the operating system's file system (Open) or an
// in-memory one (NewMem). A single process owns the directory for its
// lifetime.
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
	// table and journal. It is held across their writes and fsyncs, and
	// is never taken together with mu or a session lock.
	kvMu sync.Mutex
	// idx caches every stored result; segments are the journal, this map
	// is the index, rebuilt from the segments at Open.
	idx map[string][]byte
	// seg is the last (writable) segment, segN its sequence number.
	seg  journal
	segN int
	// lt is the lease table, rebuilt from the lease journal at Open so
	// fencing tokens stay monotonic across a store-server restart.
	lt     leaseTable
	leases journal
}

// journal is a log the store keeps open and appends records to: a
// session log, the active result segment or the lease journal.
type journal struct {
	// f is nil once a failed record could not be cut away.
	f logFile
	// size is the length of the log's acknowledged records.
	size int64
}

// errStopped answers a write to a result segment or the lease journal
// that stopped taking records after a failed cut.
var errStopped = errors.New("store: file stopped after a failed write; reopen the store")

// append writes one record and fsyncs it, the durability protocol of
// every acknowledged record; the fsync, the serving tier's checkpoint
// cost C, gets its own span. A failed write or fsync cuts the log back
// to its acknowledged records, so no fragment sits under the next
// record. When the cut fails too, it closes the handle: the segment
// and the lease journal then take no record until the store is
// reopened, whose Open repairs the fragment as a torn tail.
func (j *journal) append(ctx context.Context, line []byte) error {
	if j.f == nil {
		return errStopped
	}
	_, err := j.f.Write(line)
	if err == nil {
		_, sp := obs.StartSpan(ctx, "store.fsync")
		err = j.f.Sync()
		sp.End()
	}
	if err != nil {
		if j.f.Truncate(j.size) != nil {
			_ = j.close()
		}
		return err
	}
	j.size += int64(len(line))
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Open mounts (or initializes) a file store rooted at dir.
func Open(dir string, opt Options) (*FileStore, error) { return openFS(osFS{}, dir, opt) }

// NewMem returns an empty store over a fresh in-memory file system: the
// full store contract, with nothing outliving the process. It is the
// service's store when no data directory is configured.
func NewMem(opt Options) *FileStore {
	st, err := openFS(newMemFS(), memRoot, opt)
	if err != nil {
		panic("store: open an empty in-memory store: " + err.Error())
	}
	return st
}

// openFS opens the store rooted at dir on files.
func openFS(files logFS, dir string, opt Options) (*FileStore, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.Clock == nil {
		opt.Clock = obs.NewRealClock()
	}
	st := &FileStore{
		dir:      dir,
		opt:      opt,
		files:    files,
		sessions: make(map[string]*fsSession),
		handles:  list.New(),
		idx:      make(map[string][]byte),
		lt:       newLeaseTable(),
	}
	for _, sub := range []string{st.sessionsDir(), st.resultsDir()} {
		if err := files.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	err := st.loadSegments()
	if err == nil {
		err = st.loadLeases()
	}
	if err != nil {
		st.Close()
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

// ValidID reports whether id is usable as a session id: non-empty, not
// dot-led, and drawn from [A-Za-z0-9._-], the set that is safe as a
// log file name. An unsafe id wraps ErrNoSession: such an id can never
// name a stored log, and the store's read paths answer "not found", not
// "server error". The service checks client-chosen session ids against
// it before they reach the store.
func ValidID(id string) error {
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
		_ = s.close()
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
	if err := s.append(ctx, line); err != nil {
		if s.f == nil { // the cut failed
			s.open = false
		}
		_ = s.close()
		return err
	}
	st.appends.Add(1)
	return nil
}

func (st *FileStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", "created")
	span.SetAttr("session", id)
	if err := ValidID(id); err != nil {
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
		s.journal = journal{f: f}
		if err := s.append(ctx, line); err != nil {
			// The record was not acknowledged; drop the partial file so the
			// id is not burned by a half-created log.
			_ = s.close()
			_ = st.files.Remove(path)
			return fmt.Errorf("store: create session %s: %w", id, err)
		}
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
	if err := ValidID(id); err != nil {
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
	if err := ValidID(id); err != nil {
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
	if err := ValidID(id); err != nil {
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

// readFile reads a whole file.
func (st *FileStore) readFile(name string) ([]byte, error) {
	f, err := st.files.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readLog(f)
}

// loadSegments scans dir/results at Open: sealed segments must be
// clean, the last segment may carry a torn tail (repaired by
// truncation), and every surviving record lands in the index.
func (st *FileStore) loadSegments() error {
	names, err := st.files.ReadDir(st.resultsDir())
	if err != nil {
		return fmt.Errorf("store: open results: %w", err)
	}
	var segs []string
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, "seg-%06d.log", &n); err == nil && segmentName(n) == name {
			segs = append(segs, name)
			st.segN = n
		}
	}
	if len(segs) == 0 {
		st.segN = 1
		return st.openSegment(true, 0)
	}
	var torn int
	for i, name := range segs {
		data, err := st.readFile(filepath.Join(st.resultsDir(), name))
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		var frames []frame
		frames, torn, err = decodeFrames(data)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		if torn > 0 && i < len(segs)-1 {
			return fmt.Errorf("store: open segment %s: %w", name,
				&CorruptError{Offset: len(data) - torn, Reason: "torn tail in a sealed segment"})
		}
		for _, fr := range frames {
			rec, err := decodeKVRecord(fr.payload, fr.off)
			if err != nil {
				return fmt.Errorf("store: open segment %s: %w", name, err)
			}
			st.idx[rec.Key] = rec.Val
		}
		st.seg.size = int64(len(data) - torn)
	}
	if err := st.openSegment(false, st.seg.size); err != nil {
		return err
	}
	if torn > 0 {
		if err := st.seg.f.Truncate(st.seg.size); err != nil {
			return fmt.Errorf("store: repair segment %s: %w", segmentName(st.segN), err)
		}
	}
	return nil
}

// openSegment opens (creating when fresh) the writable segment, whose
// acknowledged records end at size.
func (st *FileStore) openSegment(create bool, size int64) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE
	}
	name := segmentName(st.segN)
	f, err := st.files.OpenFile(filepath.Join(st.resultsDir(), name), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %s: %w", name, err)
	}
	st.seg = journal{f: f, size: size}
	if create {
		if err := st.files.SyncDir(st.resultsDir()); err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
	}
	return nil
}

func (st *FileStore) Put(ctx context.Context, key string, val []byte) error {
	return st.put(ctx, nil, key, val)
}

func (st *FileStore) PutLeased(ctx context.Context, l Lease, key string, val []byte) error {
	return st.put(ctx, &l, key, val)
}

// put appends one result record to the active segment (rotating as
// needed), fsyncs it and indexes the value; with a lease, only while
// the lease's token is current.
func (st *FileStore) put(ctx context.Context, l *Lease, key string, val []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.put")
	defer span.End()
	span.SetAttr("key", key)
	if l != nil {
		span.SetAttr("leased", "true")
	}
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
	if l != nil {
		if err := st.lt.check(*l); err != nil {
			return st.countLeaseErr(fmt.Errorf("store: fenced put %s: %w", key, err))
		}
	}
	// A stopped segment is not sealed: its fragment stays in the last
	// segment, where Open repairs a torn tail.
	if st.seg.f != nil && st.seg.size >= st.opt.SegmentBytes {
		if err := st.seg.close(); err != nil {
			return fmt.Errorf("store: seal segment %s: %w", segmentName(st.segN), err)
		}
		st.segN++
		if err := st.openSegment(true, 0); err != nil {
			return err
		}
	}
	if err := st.seg.append(ctx, line); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
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

// loadLeases rebuilds the lease table from dir/leases.log at Open and
// keeps the journal open for appends, creating it empty when missing.
// Like the session logs, a torn tail is an unacknowledged transition
// repaired by truncation; a terminated-but-bad line is corruption.
func (st *FileStore) loadLeases() error {
	path := st.leasesPath()
	data, err := st.readFile(path)
	created := errors.Is(err, fs.ErrNotExist)
	if err != nil && !created {
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
	size := int64(len(data))
	if torn > 0 || len(frames) > len(st.lt.leases) {
		if size, err = st.compactLeases(); err != nil {
			return fmt.Errorf("store: compact leases: %w", err)
		}
	}
	f, err := st.files.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open leases: %w", err)
	}
	st.leases = journal{f: f, size: size}
	if created {
		if err := st.files.SyncDir(st.dir); err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
	}
	return nil
}

// compactLeases atomically rewrites dir/leases.log as one record per
// key — the lease table's current state, keys sorted for a
// deterministic image — via the tmp + fsync + rename discipline, so a
// crash mid-compaction leaves either the old or the new journal. It
// returns the new journal's size.
func (st *FileStore) compactLeases() (int64, error) {
	keys := make([]string, 0, len(st.lt.leases))
	for k := range st.lt.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		line, err := encodeLeaseRecord(k, st.lt.leases[k])
		if err != nil {
			return 0, err
		}
		buf = append(buf, line...)
	}
	path := st.leasesPath()
	tmp := path + ".tmp"
	f, err := st.files.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		_ = st.files.Remove(tmp)
		return 0, err
	}
	if err := st.files.Rename(tmp, path); err != nil {
		return 0, err
	}
	return int64(len(buf)), st.files.SyncDir(st.dir)
}

// journalLeaseLocked makes key's current lease state durable. It must
// succeed before the transition is acknowledged: a granted lease whose
// token bump did not reach disk could, after a crash, be re-granted
// with a stale token — exactly what fencing exists to prevent.
func (st *FileStore) journalLeaseLocked(ctx context.Context, key string) error {
	line, err := encodeLeaseRecord(key, st.lt.leases[key])
	if err != nil {
		return err
	}
	if err := st.leases.append(ctx, line); err != nil {
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

// Close closes every session-log handle, the active segment and the
// lease journal. An operation already under way on a session finishes
// first; every later one answers ErrClosed.
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
		_ = s.close()
		s.mu.Unlock()
	}
	st.kvMu.Lock()
	defer st.kvMu.Unlock()
	if err := errors.Join(st.seg.close(), st.leases.close()); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
