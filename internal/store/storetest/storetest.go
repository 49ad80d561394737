// Package storetest exports the backend-agnostic conformance suite for
// the store.LeaseStore contract, plus the session replay's log image.
// FileStore, over the OS file system or an in-memory one, and the
// cluster RemoteStore all run the identical suite, so "lease" means
// exactly one thing no matter which backend a replica mounts — the
// property the sweep-claim runner and the fencing design rest on.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// LeasedStore is a full store that also exposes the lease face — what
// the cluster-aware service mounts.
type LeasedStore interface {
	store.Store
	store.LeaseStore
}

// Harness is one backend under test. Clock must be the same clock the
// backend measures lease expiry on (for a RemoteStore, the clock of
// the store server's backend), so the suite expires leases by
// advancing it instead of sleeping.
type Harness struct {
	Store LeasedStore
	Clock *obs.FakeClock
}

// StartTime is the suite's fake-clock epoch; harness constructors
// should build their FakeClock from it.
var StartTime = time.Unix(1_700_000_000, 0)

// NewClock returns a fake clock positioned at StartTime, ticking 1ms
// per read.
func NewClock() *obs.FakeClock {
	return obs.NewFakeClock(StartTime, time.Millisecond)
}

// ttl is long against the clock's auto-tick, so the handful of Now
// reads inside a test never expires a lease by accident.
const ttl = time.Minute

// RunLeaseSuite runs every lease-contract test against a backend.
// open must return a fresh, empty store per subtest.
func RunLeaseSuite(t *testing.T, open func(t *testing.T) Harness) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, h Harness)
	}{
		{"AcquireAndPut", testAcquireAndPut},
		{"HeldByOther", testHeldByOther},
		{"OwnerReacquireIdempotent", testOwnerReacquireIdempotent},
		{"ExpiryReclaimAndFencing", testExpiryReclaimAndFencing},
		{"RenewExtends", testRenewExtends},
		{"RenewRevivesExpiredUnreclaimed", testRenewRevivesExpiredUnreclaimed},
		{"ReleaseThenReacquire", testReleaseThenReacquire},
		{"PutLeasedAfterExpiryUnreclaimed", testPutLeasedAfterExpiryUnreclaimed},
		{"DegenerateArgs", testDegenerateArgs},
		{"ReplayImage", testReplayImage},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, open(t))
		})
	}
}

func ctxb() context.Context { return context.Background() }

func mustAcquire(t *testing.T, s store.LeaseStore, key, owner string) store.Lease {
	t.Helper()
	l, err := s.AcquireLease(ctxb(), key, owner, ttl)
	if err != nil {
		t.Fatalf("acquire %s by %s: %v", key, owner, err)
	}
	if l.Key != key || l.Owner != owner || l.Token == 0 {
		t.Fatalf("acquire %s by %s: bad lease %+v", key, owner, l)
	}
	return l
}

// testAcquireAndPut: a fresh acquire grants a usable fence — PutLeased
// writes land and are readable — and the counters account for it.
func testAcquireAndPut(t *testing.T, h Harness) {
	l := mustAcquire(t, h.Store, "cell-0", "worker-a")
	if err := h.Store.PutLeased(ctxb(), l, "cell-0", []byte("v0")); err != nil {
		t.Fatalf("fenced put: %v", err)
	}
	got, ok, err := h.Store.Get(ctxb(), "cell-0")
	if err != nil || !ok || string(got) != "v0" {
		t.Fatalf("get after fenced put: %q ok=%v err=%v", got, ok, err)
	}
	st := h.Store.Stats()
	if st.LeaseAcquired == 0 || st.Puts == 0 {
		t.Fatalf("stats after acquire+put: %+v", st)
	}
}

// testHeldByOther: a live lease excludes every other owner.
func testHeldByOther(t *testing.T, h Harness) {
	mustAcquire(t, h.Store, "cell-0", "worker-a")
	_, err := h.Store.AcquireLease(ctxb(), "cell-0", "worker-b", ttl)
	if !errors.Is(err, store.ErrLeaseHeld) {
		t.Fatalf("second owner acquire: %v, want ErrLeaseHeld", err)
	}
}

// testOwnerReacquireIdempotent: the holder re-acquiring its own live
// lease gets the same token back — what makes acquire safe to retry
// over a wire that may have delivered the first attempt.
func testOwnerReacquireIdempotent(t *testing.T, h Harness) {
	l1 := mustAcquire(t, h.Store, "cell-0", "worker-a")
	l2 := mustAcquire(t, h.Store, "cell-0", "worker-a")
	if l2.Token != l1.Token {
		t.Fatalf("re-acquire token %d, want the original %d", l2.Token, l1.Token)
	}
	if err := h.Store.PutLeased(ctxb(), l1, "cell-0", []byte("v")); err != nil {
		t.Fatalf("original lease still writes: %v", err)
	}
}

// testExpiryReclaimAndFencing is the heart of the contract: an expired
// lease is reclaimed with a bumped token, after which every operation
// under the dead owner's token — renew, release, fenced write — is
// ErrLeaseStale and writes nothing.
func testExpiryReclaimAndFencing(t *testing.T, h Harness) {
	la := mustAcquire(t, h.Store, "cell-0", "worker-a")
	h.Clock.Advance(2 * ttl)
	lb, err := h.Store.AcquireLease(ctxb(), "cell-0", "worker-b", ttl)
	if err != nil {
		t.Fatalf("reclaim after expiry: %v", err)
	}
	if lb.Token <= la.Token {
		t.Fatalf("reclaim token %d not beyond the expired %d", lb.Token, la.Token)
	}

	if err := h.Store.RenewLease(ctxb(), la, ttl); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("stale renew: %v, want ErrLeaseStale", err)
	}
	if err := h.Store.PutLeased(ctxb(), la, "cell-0", []byte("stale")); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("stale fenced put: %v, want ErrLeaseStale", err)
	}
	if _, ok, _ := h.Store.Get(ctxb(), "cell-0"); ok {
		t.Fatal("a fenced-off write still landed")
	}
	if err := h.Store.ReleaseLease(ctxb(), la); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("stale release: %v, want ErrLeaseStale", err)
	}

	if err := h.Store.PutLeased(ctxb(), lb, "cell-0", []byte("fresh")); err != nil {
		t.Fatalf("reclaimer's fenced put: %v", err)
	}
	st := h.Store.Stats()
	if st.LeaseReclaimed == 0 {
		t.Fatalf("reclaim not counted: %+v", st)
	}
	if st.LeaseStale < 3 {
		t.Fatalf("stale rejections %d, want >= 3: %+v", st.LeaseStale, st)
	}
}

// testRenewExtends: a renewed lease keeps excluding other owners past
// its original expiry.
func testRenewExtends(t *testing.T, h Harness) {
	la := mustAcquire(t, h.Store, "cell-0", "worker-a")
	h.Clock.Advance(ttl / 2)
	if err := h.Store.RenewLease(ctxb(), la, ttl); err != nil {
		t.Fatalf("renew: %v", err)
	}
	h.Clock.Advance(3 * ttl / 4) // beyond the original expiry, within the renewed one
	if _, err := h.Store.AcquireLease(ctxb(), "cell-0", "worker-b", ttl); !errors.Is(err, store.ErrLeaseHeld) {
		t.Fatalf("acquire within the renewed window: %v, want ErrLeaseHeld", err)
	}
	if st := h.Store.Stats(); st.LeaseRenewed == 0 {
		t.Fatalf("renew not counted: %+v", st)
	}
}

// testRenewRevivesExpiredUnreclaimed: expiry alone does not fence —
// while nobody has reclaimed the key, the token is still current and a
// renew revives the lease.
func testRenewRevivesExpiredUnreclaimed(t *testing.T, h Harness) {
	la := mustAcquire(t, h.Store, "cell-0", "worker-a")
	h.Clock.Advance(2 * ttl)
	if err := h.Store.RenewLease(ctxb(), la, ttl); err != nil {
		t.Fatalf("renew of an expired-but-unreclaimed lease: %v", err)
	}
	if _, err := h.Store.AcquireLease(ctxb(), "cell-0", "worker-b", ttl); !errors.Is(err, store.ErrLeaseHeld) {
		t.Fatalf("acquire after revival: %v, want ErrLeaseHeld", err)
	}
}

// testReleaseThenReacquire: release hands the key over immediately
// (no ttl wait), the next acquire bumps the token, and the releaser's
// writes are fenced off.
func testReleaseThenReacquire(t *testing.T, h Harness) {
	la := mustAcquire(t, h.Store, "cell-0", "worker-a")
	if err := h.Store.ReleaseLease(ctxb(), la); err != nil {
		t.Fatalf("release: %v", err)
	}
	lb, err := h.Store.AcquireLease(ctxb(), "cell-0", "worker-b", ttl)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if lb.Token <= la.Token {
		t.Fatalf("post-release token %d not beyond %d", lb.Token, la.Token)
	}
	if err := h.Store.PutLeased(ctxb(), la, "cell-0", []byte("late")); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("releaser's late put: %v, want ErrLeaseStale", err)
	}
	if st := h.Store.Stats(); st.LeaseReleased == 0 {
		t.Fatalf("release not counted: %+v", st)
	}
}

// testPutLeasedAfterExpiryUnreclaimed: the token, not the clock, is
// the fencing criterion — a write under an expired-but-unreclaimed
// lease is still exclusive, so it lands.
func testPutLeasedAfterExpiryUnreclaimed(t *testing.T, h Harness) {
	la := mustAcquire(t, h.Store, "cell-0", "worker-a")
	h.Clock.Advance(2 * ttl)
	if err := h.Store.PutLeased(ctxb(), la, "cell-0", []byte("v")); err != nil {
		t.Fatalf("fenced put after expiry, before reclaim: %v", err)
	}
}

// testDegenerateArgs: malformed lease parameters fail up front on
// every backend, uniformly.
func testDegenerateArgs(t *testing.T, h Harness) {
	if _, err := h.Store.AcquireLease(ctxb(), "", "w", ttl); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := h.Store.AcquireLease(ctxb(), "k", "", ttl); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := h.Store.AcquireLease(ctxb(), "k", "w", 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	if err := h.Store.PutLeased(ctxb(), store.Lease{Key: "k", Owner: "w", Token: 7}, "k", []byte("v")); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("synthesized-token put: %v, want ErrLeaseStale", err)
	}
}

// testReplayImage: a replay's Image is its session's log image, the
// bytes the backend decoded it from: it decodes back to the same spec
// and steps, and it equals AppendSessionImage's encoding of the replay.
func testReplayImage(t *testing.T, h Harness) {
	ss, steps := History()
	if err := WriteHistory(ctxb(), h.Store, "image", ss, steps); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Store.Replay(ctxb(), "image")
	if err != nil {
		t.Fatal(err)
	}
	img := rep.Image()
	back, err := store.DecodeSessionImage(img, 1+len(steps))
	if err != nil {
		t.Fatalf("image does not decode: %v", err)
	}
	if !reflect.DeepEqual(back.Spec, rep.Spec) || len(back.Steps) != len(steps) {
		t.Fatalf("image decodes to spec %+v and %d steps, want %+v and %d", back.Spec, len(back.Steps), rep.Spec, len(steps))
	}
	for i, s := range back.Steps {
		want := steps[i]
		if s.Advised != want.Advised || s.Event.Kind != want.Event.Kind || s.Event.Unit != want.Event.Unit ||
			math.Float64bits(s.Event.Time) != math.Float64bits(want.Event.Time) ||
			math.Float64bits(s.Event.Work) != math.Float64bits(want.Event.Work) {
			t.Fatalf("image step %d = %+v, want %+v", i, s, want)
		}
	}
	enc, err := store.AppendSessionImage(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, enc) {
		t.Fatalf("image of %d bytes differs from AppendSessionImage's %d", len(img), len(enc))
	}
}
