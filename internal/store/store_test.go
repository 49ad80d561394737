package store

import (
	"context"
	"errors"
	"testing"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// testSessionSpec is a minimal valid session document: the oneproc
// scenario with the Young policy, trace fields defaulted.
func testSessionSpec() *spec.SessionSpec {
	return &spec.SessionSpec{
		Name: "test-session",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
		},
		Policy: spec.PolicySpec{Kind: "young"},
	}
}

// backends enumerates the Store implementations under the conformance
// tests, in a fixed order.
var backends = []struct {
	name string
	open func(t *testing.T) Store
}{
	{"mem", func(t *testing.T) Store { return NewMem(Options{}) }},
	{"file", func(t *testing.T) Store {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}},
}

// TestSessionLogConformance: the journal grammar behaves identically
// over both backends — create once, append only while open, replay in
// order, tombstone forever.
func TestSessionLogConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.open(t)
			ss := testSessionSpec()
			if err := st.AppendCreated(context.Background(), "s1", ss); err != nil {
				t.Fatal(err)
			}
			if err := st.AppendCreated(context.Background(), "s1", ss); !errors.Is(err, ErrSessionExists) {
				t.Fatalf("second create: %v, want ErrSessionExists", err)
			}
			if err := st.AppendEvent(context.Background(), "ghost", advisor.Event{Kind: advisor.EventProgress}); !errors.Is(err, ErrNoSession) {
				t.Fatalf("append to unknown session: %v, want ErrNoSession", err)
			}

			if err := st.AppendAdvised(context.Background(), "s1"); err != nil {
				t.Fatal(err)
			}
			ev1 := advisor.Event{Kind: advisor.EventFailure, Time: 100, Unit: 0}
			ev2 := advisor.Event{Kind: advisor.EventRecovered, Time: 220}
			for _, ev := range []advisor.Event{ev1, ev2} {
				if err := st.AppendEvent(context.Background(), "s1", ev); err != nil {
					t.Fatal(err)
				}
			}

			rep, err := st.Replay(context.Background(), "s1")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Spec == nil || rep.Spec.Name != ss.Name || rep.Spec.Policy.Kind != "young" {
				t.Fatalf("replayed spec %+v", rep.Spec)
			}
			want := []advisor.ReplayStep{{Advised: true}, {Event: ev1}, {Event: ev2}}
			if len(rep.Steps) != len(want) {
				t.Fatalf("replayed %d steps, want %d", len(rep.Steps), len(want))
			}
			for i, stp := range rep.Steps {
				if stp != want[i] {
					t.Fatalf("step %d = %+v, want %+v", i, stp, want[i])
				}
			}
			if _, err := st.Replay(context.Background(), "ghost"); !errors.Is(err, ErrNoSession) {
				t.Fatalf("replay unknown: %v, want ErrNoSession", err)
			}

			// Tombstone is terminal: no replay, no appends, no re-tombstone.
			if err := st.Tombstone(context.Background(), "s1"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Replay(context.Background(), "s1"); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("replay tombstoned: %v, want ErrTombstoned", err)
			}
			if err := st.AppendEvent(context.Background(), "s1", ev1); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("append tombstoned: %v, want ErrTombstoned", err)
			}
			if err := st.Tombstone(context.Background(), "s1"); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("re-tombstone: %v, want ErrTombstoned", err)
			}
			if err := st.Tombstone(context.Background(), "ghost"); !errors.Is(err, ErrNoSession) {
				t.Fatalf("tombstone unknown: %v, want ErrNoSession", err)
			}

			s := st.Stats()
			// created + advised + 2 events + tombstone = 5 acknowledged appends.
			if s.Appends != 5 || s.Replays != 1 {
				t.Fatalf("stats %+v, want 5 appends / 1 replay", s)
			}
		})
	}
}

// TestResultStoreConformance: Put/Get round-trips, misses are not
// errors, and the last write wins.
func TestResultStoreConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.open(t)
			if _, ok, err := st.Get(context.Background(), "missing"); err != nil || ok {
				t.Fatalf("miss: ok=%v err=%v", ok, err)
			}
			if err := st.Put(context.Background(), "k1", []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(context.Background(), "k1", []byte("line1\nline2")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := st.Get(context.Background(), "k1")
			if err != nil || !ok || string(v) != "line1\nline2" {
				t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
			}
			if err := st.Put(context.Background(), "", nil); err == nil {
				t.Fatal("empty key accepted")
			}
			s := st.Stats()
			if s.Puts != 2 || s.Gets != 2 {
				t.Fatalf("stats %+v, want 2 puts / 2 gets", s)
			}
		})
	}
}

// TestStoreClosed: every operation on a closed store answers ErrClosed.
func TestStoreClosed(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.open(t)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.AppendCreated(context.Background(), "s1", testSessionSpec()); !errors.Is(err, ErrClosed) {
				t.Fatalf("create: %v", err)
			}
			if _, err := st.Replay(context.Background(), "s1"); !errors.Is(err, ErrClosed) {
				t.Fatalf("replay: %v", err)
			}
			if err := st.Put(context.Background(), "k", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("put: %v", err)
			}
			if _, _, err := st.Get(context.Background(), "k"); !errors.Is(err, ErrClosed) {
				t.Fatalf("get: %v", err)
			}
		})
	}
}
