package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// errSessionsFull reports that the bounded session store is at capacity
// with no expired session to reclaim; the handler maps it to 429 +
// Retry-After, like the admission queue.
var errSessionsFull = errors.New("service: session store full")

// liveSession is one stored advisor session. Its mutex serializes event
// application and advising: advisor.Session is not goroutine-safe, and
// two concurrent event batches for the same id must apply in some total
// order. The expiry deadline is store state, guarded by the store mutex
// (get slides it concurrently with handlers holding only mu), so
// create/get hand handlers a snapshot instead of exposing the field.
type liveSession struct {
	mu      sync.Mutex
	id      string
	name    string
	sess    *advisor.Session
	expires time.Time // guarded by sessionStore.mu, not mu
	// specHash is the canonical digest of the spec this session was
	// created (or rehydrated) from. Immutable once the entry is
	// published, so reads need no lock. Idempotent re-creates (?id=)
	// compare against it: answering an existing session for a different
	// spec would silently hand the client the wrong advisor.
	specHash string
	// advised records that this live entry has consulted the policy at
	// least once, so the next consult is a warm re-plan off the previous
	// plan's memo rather than a cold DP build. Guarded by mu.
	advised bool
}

// specDigest canonically hashes a session spec: SHA-256 over its
// compact JSON encoding, which is deterministic for the decoded struct
// (fixed field order), so the same document always digests the same —
// including after a journal round trip.
func specDigest(ss *spec.SessionSpec) string {
	b, err := json.Marshal(ss)
	if err != nil {
		// A spec that decoded cannot fail to re-encode; guard anyway so a
		// future unmarshalable field degrades to "never matches".
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sessionStats is a point-in-time snapshot of the store's counters.
type sessionStats struct {
	open      int
	created   uint64
	evicted   uint64 // TTL expiries reclaimed
	rejected  uint64 // creations refused at capacity
	recovered uint64 // sessions rehydrated from the durable log
}

// sessionStore is the bounded TTL store behind /v1/sessions. Sessions
// expire ttl after their last touch (sliding window); expired entries are
// reclaimed lazily — on lookup, and wholesale when a creation finds the
// store full. A full store with nothing expired rejects the creation:
// shedding new sessions beats silently killing live ones.
//
// The store is the live (in-memory) half only; the durable half is the
// session log it tombstones into whenever it reaps an entry, so an
// expired or deleted session is never resurrectable by rehydration.
// Tombstones are written after mu is released, so no session request
// waits behind another session's log I/O. Until its tombstone is
// durable a removed id is pending: no replay of its log starts, and
// neither adopt nor create installs it. A replay already under way when
// its id is removed is refused at adopt as well, so no read of the log
// from before its tombstone is ever installed.
type sessionStore struct {
	mu      sync.Mutex
	byID    map[string]*liveSession
	pending map[string]struct{} // removed ids whose tombstone is not yet written
	replays map[string]*replaying
	ttl     time.Duration
	cap     int
	log     store.SessionLog
	now     func() time.Time // injectable clock for the expiry tests

	created   uint64
	evicted   uint64
	rejected  uint64
	recovered uint64
}

// replaying counts the rehydrations of one id that are reading its log,
// and records whether the id was removed while they did.
type replaying struct {
	n       int
	removed bool
}

func newSessionStore(ttl time.Duration, capacity int, log store.SessionLog, clock obs.Clock) *sessionStore {
	return &sessionStore{
		byID:    map[string]*liveSession{},
		pending: map[string]struct{}{},
		replays: map[string]*replaying{},
		ttl:     ttl,
		cap:     capacity,
		log:     log,
		now:     clock.Now,
	}
}

// removeLocked drops a live entry whose log must be tombstoned, marks
// its id pending and adds it to reaped, which the caller hands to
// tombstone once st.mu is released. Callers hold st.mu.
func (st *sessionStore) removeLocked(reaped []string, id string) []string {
	delete(st.byID, id)
	st.pending[id] = struct{}{}
	if rp := st.replays[id]; rp != nil {
		rp.removed = true
	}
	return append(reaped, id)
}

// reapLocked evicts one expired session. Callers hold st.mu.
func (st *sessionStore) reapLocked(reaped []string, id string) []string {
	st.evicted++
	return st.removeLocked(reaped, id)
}

// sweepLocked reclaims every expired session. Callers hold st.mu.
func (st *sessionStore) sweepLocked(reaped []string, now time.Time) []string {
	for id, ls := range st.byID {
		if now.After(ls.expires) {
			reaped = st.reapLocked(reaped, id)
		}
	}
	return reaped
}

// tombstone writes the tombstones of removed sessions, so they cannot
// come back through replay, and then lifts their pending mark. It
// returns their errors; eviction ignores them, since it must proceed
// even when the backing log is failing. Callers do not hold st.mu.
func (st *sessionStore) tombstone(ctx context.Context, reaped []string) error {
	var errs []error
	for _, id := range reaped {
		errs = append(errs, st.log.Tombstone(ctx, id))
		st.mu.Lock()
		delete(st.pending, id)
		st.mu.Unlock()
	}
	return errors.Join(errs...)
}

// full reports whether the store is at capacity after reclaiming
// expired sessions — the cheap advisory check the create handler runs
// before paying for a spec compile. The authoritative check stays in
// create (a racing creation can still fill the store in between).
func (st *sessionStore) full(ctx context.Context) bool {
	var reaped []string
	defer func() { st.tombstone(ctx, reaped) }()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.byID) >= st.cap {
		reaped = st.sweepLocked(reaped, st.now())
	}
	if len(st.byID) >= st.cap {
		st.rejected++
		return true
	}
	return false
}

// create stores a new session, minting a fresh id when id is empty
// (the plain POST /v1/sessions path) or installing the caller's chosen
// id (replica-transparent creation, ?id=). A chosen id that is already
// live wins the race for both creators: the existing entry is returned
// with existed=true, mirroring the append-once semantics of the
// durable log underneath. A chosen id whose tombstone is pending
// answers store.ErrTombstoned.
func (st *sessionStore) create(ctx context.Context, id, name, specHash string, sess *advisor.Session) (ls *liveSession, expires time.Time, existed bool, err error) {
	var reaped []string
	defer func() { st.tombstone(ctx, reaped) }()
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	if id != "" {
		if live, ok := st.byID[id]; ok && !now.After(live.expires) {
			live.expires = now.Add(st.ttl)
			return live, live.expires, true, nil
		}
		if _, ok := st.pending[id]; ok {
			return nil, time.Time{}, false, store.ErrTombstoned
		}
	}
	if len(st.byID) >= st.cap {
		reaped = st.sweepLocked(reaped, now)
	}
	if len(st.byID) >= st.cap {
		st.rejected++
		return nil, time.Time{}, false, errSessionsFull
	}
	if id == "" {
		var raw [16]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, time.Time{}, false, err
		}
		id = hex.EncodeToString(raw[:])
	}
	ls = &liveSession{
		id:       id,
		name:     name,
		sess:     sess,
		expires:  now.Add(st.ttl),
		specHash: specHash,
	}
	st.byID[ls.id] = ls
	st.created++
	return ls, ls.expires, false, nil
}

// get returns the live session and slides its expiry window, reporting
// the new deadline. An expired session is reclaimed and reported
// missing.
func (st *sessionStore) get(ctx context.Context, id string) (*liveSession, time.Time, bool) {
	var reaped []string
	defer func() { st.tombstone(ctx, reaped) }()
	st.mu.Lock()
	defer st.mu.Unlock()
	ls, ok := st.byID[id]
	if !ok {
		return nil, time.Time{}, false
	}
	now := st.now()
	if now.After(ls.expires) {
		reaped = st.reapLocked(reaped, id)
		return nil, time.Time{}, false
	}
	ls.expires = now.Add(st.ttl)
	return ls, ls.expires, true
}

// beginReplay registers a rehydration of id, which replays its log and
// then adopts the session; endReplay ends it, whatever its outcome. It
// reports false, and registers nothing, for an id whose tombstone is
// pending: a replay now could read the log before the tombstone lands.
func (st *sessionStore) beginReplay(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.pending[id]; ok {
		return false
	}
	rp := st.replays[id]
	if rp == nil {
		rp = &replaying{}
		st.replays[id] = rp
	}
	rp.n++
	return true
}

// endReplay ends a rehydration that beginReplay registered.
func (st *sessionStore) endReplay(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rp := st.replays[id]; rp != nil {
		if rp.n--; rp.n == 0 {
			delete(st.replays, id)
		}
	}
}

// adopt installs a session rehydrated from the durable log under its
// original id, sliding (or starting) its expiry window. A racing
// rehydration of the same id wins for both: the caller gets the entry
// that is already live. An id whose tombstone is pending, or that was
// removed while the caller's replay was under way, answers
// store.ErrTombstoned: the caller may have read the log before the
// tombstone landed.
func (st *sessionStore) adopt(ctx context.Context, id, name, specHash string, sess *advisor.Session) (*liveSession, time.Time, error) {
	var reaped []string
	defer func() { st.tombstone(ctx, reaped) }()
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	if ls, ok := st.byID[id]; ok {
		if now.After(ls.expires) {
			// The live entry expired while the caller was replaying: reap it
			// (tombstoning the log) instead of resurrecting it.
			reaped = st.reapLocked(reaped, id)
			return nil, time.Time{}, store.ErrTombstoned
		}
		ls.expires = now.Add(st.ttl)
		return ls, ls.expires, nil
	}
	if _, ok := st.pending[id]; ok {
		return nil, time.Time{}, store.ErrTombstoned
	}
	if rp := st.replays[id]; rp != nil && rp.removed {
		return nil, time.Time{}, store.ErrTombstoned
	}
	if len(st.byID) >= st.cap {
		reaped = st.sweepLocked(reaped, now)
	}
	if len(st.byID) >= st.cap {
		st.rejected++
		return nil, time.Time{}, errSessionsFull
	}
	ls := &liveSession{
		id:       id,
		name:     name,
		sess:     sess,
		expires:  now.Add(st.ttl),
		specHash: specHash,
	}
	st.byID[id] = ls
	st.recovered++
	return ls, ls.expires, nil
}

// delete removes a session and tombstones its log. A session that is
// not live here is tombstoned too: its log may exist (a restarted
// server deleting a session it never rehydrated), and the tombstone
// makes the delete durable without paying for a replay; its error is
// returned, store.ErrNoSession when there is no log. An id that is gone
// here — expired (the reap tombstones it), or removed with its
// tombstone pending — answers store.ErrTombstoned. The tombstone of a
// live session is best-effort, like a reap's.
func (st *sessionStore) delete(ctx context.Context, id string) error {
	st.mu.Lock()
	if _, ok := st.pending[id]; ok {
		st.mu.Unlock()
		return store.ErrTombstoned
	}
	ls, live := st.byID[id]
	expired := live && st.now().After(ls.expires)
	if expired {
		st.evicted++
	}
	reaped := st.removeLocked(nil, id)
	st.mu.Unlock()
	err := st.tombstone(ctx, reaped)
	switch {
	case expired:
		return store.ErrTombstoned
	case live:
		return nil
	}
	return err
}

// drop removes a live entry without tombstoning — the desync escape
// hatch: when a durable append fails after the in-memory session already
// applied the event, the entry is dropped so the next access rehydrates
// from the acknowledged durable prefix.
func (st *sessionStore) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.byID, id)
}

func (st *sessionStore) stats() sessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return sessionStats{
		open:      len(st.byID),
		created:   st.created,
		evicted:   st.evicted,
		rejected:  st.rejected,
		recovered: st.recovered,
	}
}
