package store

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Lease errors. Like the session-log sentinels these are wrapped by the
// backends so callers classify with errors.Is.
var (
	// ErrLeaseHeld reports an AcquireLease on a key whose lease is live
	// and owned by someone else.
	ErrLeaseHeld = errors.New("store: lease is held")
	// ErrLeaseStale reports an operation carrying a fencing token the
	// store has moved past: the lease was reclaimed (or never existed),
	// so the caller must stop writing and re-acquire.
	ErrLeaseStale = errors.New("store: lease token is stale")
	// ErrUnavailable reports that the backend itself cannot be reached —
	// a remote store that is down or timing out, as opposed to a domain
	// answer like ErrNoSession or a *CorruptError. The service maps it to
	// 503: the request may succeed on retry, nothing is corrupt.
	ErrUnavailable = errors.New("store: backend unavailable")
)

// Lease is a held claim on a key. Token is the monotonic fencing token:
// every reclaim of the key bumps it, so a writer presenting an old
// token is rejected (ErrLeaseStale) even if it believes it still holds
// the lease. Callers treat Lease as an opaque capability — hold it,
// renew it, pass it to PutLeased — and never synthesize one.
type Lease struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Token uint64 `json:"token"`
}

// LeaseStore is the claim face of a store: a worker fleet coordinates
// ownership of work items (sweep-job cells) through it instead of one
// process owning the run.
//
// The contract, uniform across FileStore and RemoteStore:
//
//   - AcquireLease grants the key's lease for ttl. A live lease by
//     another owner answers ErrLeaseHeld. Re-acquiring one's own live
//     lease extends it and returns the same token (acquire is
//     owner-idempotent, hence safe to retry over a lossy wire). An
//     expired or released lease is reclaimed: the token increments and
//     the new owner proceeds — the increment is what fences the
//     previous holder's writes.
//   - RenewLease extends the lease's expiry while its token is still
//     current. A token the store has moved past answers ErrLeaseStale.
//     Renewal revives an expired-but-not-yet-reclaimed lease: expiry
//     alone is not the fencing criterion, losing the token is.
//   - ReleaseLease ends the lease early so the next acquirer does not
//     wait out the ttl. Releasing with a stale token answers
//     ErrLeaseStale; the release is then moot (someone else owns it).
//   - PutLeased writes through the ResultStore under the lease's
//     fence: the write happens only if l.Token is still the key's
//     current token, else ErrLeaseStale and no write. An expired lease
//     whose token was never reclaimed still writes — see above.
//
// TTLs are measured on the store's clock, not the client's, so
// replicas with skewed clocks still agree on expiry.
type LeaseStore interface {
	AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error)
	RenewLease(ctx context.Context, l Lease, ttl time.Duration) error
	ReleaseLease(ctx context.Context, l Lease) error
	PutLeased(ctx context.Context, l Lease, key string, val []byte) error
}

// validLeaseArgs rejects degenerate lease parameters up front, the
// same way on every backend, so a bug never turns into a zero-ttl
// lease that is born expired.
func validLeaseArgs(key, owner string, ttl time.Duration) error {
	switch {
	case key == "":
		return errors.New("store: lease with an empty key")
	case owner == "":
		return errors.New("store: lease with an empty owner")
	case ttl <= 0:
		return fmt.Errorf("store: lease ttl %v is not positive", ttl)
	}
	return nil
}

// leaseState is one key's lease bookkeeping in the lease table. The
// token survives release and expiry: monotonicity is the whole point.
type leaseState struct {
	owner    string
	token    uint64
	exp      time.Time // zero when released
	released bool
}

// live reports whether the lease currently excludes other acquirers.
func (s *leaseState) live(now time.Time) bool {
	return !s.released && now.Before(s.exp)
}

// leaseTable is the lease engine: FileStore holds one under its kvMu
// and journals each transition. All methods assume the caller holds
// that lock.
type leaseTable struct {
	leases map[string]*leaseState
}

func newLeaseTable() leaseTable {
	return leaseTable{leases: make(map[string]*leaseState)}
}

// acquire runs the acquire state transition. reclaimed reports that a
// previously-held (expired, unreleased) lease was taken over.
func (t *leaseTable) acquire(key, owner string, ttl time.Duration, now time.Time) (Lease, bool, error) {
	s, ok := t.leases[key]
	if !ok {
		s = &leaseState{}
		t.leases[key] = s
	}
	if s.token != 0 && s.live(now) {
		if s.owner != owner {
			return Lease{}, false, ErrLeaseHeld
		}
		// Idempotent re-acquire by the holder: extend, same token.
		s.exp = now.Add(ttl)
		return Lease{Key: key, Owner: owner, Token: s.token}, false, nil
	}
	reclaimed := s.token != 0 && !s.released
	s.owner = owner
	s.token++
	s.exp = now.Add(ttl)
	s.released = false
	return Lease{Key: key, Owner: owner, Token: s.token}, reclaimed, nil
}

// renew runs the renew transition.
func (t *leaseTable) renew(l Lease, ttl time.Duration, now time.Time) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	s.exp = now.Add(ttl)
	return nil
}

// release runs the release transition.
func (t *leaseTable) release(l Lease) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	s.released = true
	s.exp = time.Time{}
	return nil
}

// check reports whether a fenced write under l may proceed.
func (t *leaseTable) check(l Lease) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	return nil
}
