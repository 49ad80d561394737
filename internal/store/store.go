package store

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Typed store errors. Backends wrap these so the service layer can
// errors.Is-classify without string matching.
var (
	// ErrNoSession reports an operation on a session the store has never
	// seen (or whose log is gone).
	ErrNoSession = errors.New("store: no such session")
	// ErrTombstoned reports an operation on a session that was ended by a
	// tombstone record; it is never resurrectable.
	ErrTombstoned = errors.New("store: session is tombstoned")
	// ErrSessionExists reports an AppendCreated for an id that already has
	// a log.
	ErrSessionExists = errors.New("store: session already exists")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: store is closed")
)

// SessionReplay is a session's full recorded history: the spec it was
// compiled from and the steps to re-apply, in order.
type SessionReplay struct {
	// Spec is the creating record's declarative session spec.
	Spec *spec.SessionSpec
	// Steps are the recorded events and decision points, oldest first —
	// exactly what Advisor.ReplaySession consumes.
	Steps []advisor.ReplayStep

	// image is the log image Spec and Steps were decoded from, when they
	// were decoded from one (FileStore.Replay, DecodeSessionImage).
	image []byte
}

// Image returns the session's log image, as AppendSessionImage writes
// it. A replay decoded from bytes (FileStore.Replay, DecodeSessionImage)
// answers those bytes, already checked and canonical, without encoding
// anything; they describe Spec and Steps as decoded, and the caller must
// not modify them. Any other replay is encoded afresh.
func (rep *SessionReplay) Image() ([]byte, error) {
	if rep.image != nil {
		return rep.image, nil
	}
	return AppendSessionImage(nil, rep)
}

// SessionLog is the append-only session journal. Appends for a session
// are accepted only while the store considers it open in this process —
// after AppendCreated, or after a successful Replay — which keeps a
// process from blindly extending a log it has never read.
//
// Every method takes the caller's context for observability (request-id
// correlation and spans around append/fsync/replay). Durability is not
// context-interruptible: a backend that has started writing a record
// finishes it rather than tearing the log.
type SessionLog interface {
	// AppendCreated begins session id's log with its creating spec. The
	// id must be a fresh one; an existing log answers ErrSessionExists.
	AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error
	// AppendEvent appends one accepted advisor event.
	AppendEvent(ctx context.Context, id string, ev advisor.Event) error
	// AppendAdvised records a decision point at which the policy was
	// consulted (see doc.go: replay must consult it at the same points).
	AppendAdvised(ctx context.Context, id string) error
	// Tombstone terminates the log: every later Replay answers
	// ErrTombstoned. Tombstoning a tombstoned session is ErrTombstoned;
	// an unknown one is ErrNoSession.
	Tombstone(ctx context.Context, id string) error
	// Replay returns the session's recorded history and marks it open for
	// appends. Unknown sessions answer ErrNoSession, ended ones
	// ErrTombstoned, damaged logs a *CorruptError.
	Replay(ctx context.Context, id string) (*SessionReplay, error)
}

// ResultStore is the content-addressed result KV: Put is durable before
// it returns, Get reports a miss with ok=false (an error means the
// store itself failed).
type ResultStore interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) (val []byte, ok bool, err error)
}

// Store is the full persistence layer the service mounts: both faces
// plus lifecycle and counters.
type Store interface {
	SessionLog
	ResultStore
	// Stats snapshots the store's operation counters.
	Stats() Stats
	// Close releases the backend. Further operations answer ErrClosed.
	Close() error
}

// Stats is a point-in-time snapshot of a store's operation counters,
// surfaced on /metrics by the service.
type Stats struct {
	// Appends counts session-log records durably appended (created,
	// event, advised and tombstone records alike).
	Appends uint64
	// Replays counts session logs replayed.
	Replays uint64
	// Puts and Gets count result-store writes and lookups (hits and
	// misses both count as a Get).
	Puts, Gets uint64
	// Lease-face counters (see LeaseStore). Acquired counts granted
	// acquires (including reclaims and idempotent holder re-acquires);
	// Reclaimed the subset that took over an expired lease; Stale every
	// fencing rejection (ErrLeaseStale) across renew/release/PutLeased.
	LeaseAcquired, LeaseRenewed, LeaseReleased uint64
	LeaseReclaimed, LeaseStale                 uint64
}

// RegisterStats adds the nine chkpt_store_*_total counters to reg,
// rendered from one stats snapshot per scrape.
func RegisterStats(reg *obs.Registry, stats func() Stats) {
	reg.Collect(func(sc *obs.Scrape) {
		st := stats()
		sc.Counter("chkpt_store_appends_total", "Session-log records durably appended.", st.Appends)
		sc.Counter("chkpt_store_replays_total", "Session logs replayed for recovery.", st.Replays)
		sc.Counter("chkpt_store_puts_total", "Result-store values written.", st.Puts)
		sc.Counter("chkpt_store_gets_total", "Result-store lookups (hits and misses).", st.Gets)
		sc.Counter("chkpt_store_lease_acquired_total", "Leases granted (fresh grants, reclaims and holder re-acquires).", st.LeaseAcquired)
		sc.Counter("chkpt_store_lease_renewed_total", "Lease renewals accepted under a matching fencing token.", st.LeaseRenewed)
		sc.Counter("chkpt_store_lease_released_total", "Leases released by their holder.", st.LeaseReleased)
		sc.Counter("chkpt_store_lease_reclaimed_total", "Expired leases taken over by a new owner.", st.LeaseReclaimed)
		sc.Counter("chkpt_store_lease_stale_total", "Lease operations fenced off with a stale token.", st.LeaseStale)
	})
}

// counters is the atomic tally embedded by both backends.
type counters struct {
	appends        atomic.Uint64
	replays        atomic.Uint64
	puts           atomic.Uint64
	gets           atomic.Uint64
	leaseAcquired  atomic.Uint64
	leaseRenewed   atomic.Uint64
	leaseReleased  atomic.Uint64
	leaseReclaimed atomic.Uint64
	leaseStale     atomic.Uint64
}

func (c *counters) Stats() Stats {
	return Stats{
		Appends:        c.appends.Load(),
		Replays:        c.replays.Load(),
		Puts:           c.puts.Load(),
		Gets:           c.gets.Load(),
		LeaseAcquired:  c.leaseAcquired.Load(),
		LeaseRenewed:   c.leaseRenewed.Load(),
		LeaseReleased:  c.leaseReleased.Load(),
		LeaseReclaimed: c.leaseReclaimed.Load(),
		LeaseStale:     c.leaseStale.Load(),
	}
}

// countLeaseErr tallies a fencing rejection.
func (c *counters) countLeaseErr(err error) error {
	if errors.Is(err, ErrLeaseStale) {
		c.leaseStale.Add(1)
	}
	return err
}
