package advisor_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/store/storetest"
)

// sessionAdvisor compiles a oneproc advisor for the given policy spec.
func sessionAdvisor(t *testing.T, ps spec.PolicySpec) *advisor.Advisor {
	t.Helper()
	adv, err := spec.CompileAdvisor(context.Background(), engine.New(engine.Config{Workers: 2}), &spec.SessionSpec{
		Name: "replay-test",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
		},
		Policy: ps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestReplaySessionRestoresState: a session rebuilt from its recorded
// steps — events plus advised markers — lands on the identical pending
// decision and observable state. DPNextFailure is the policy whose
// NextChunk advances an internal plan cursor, so it is the policy that
// would expose a replay consulting the policy at the wrong points.
func TestReplaySessionRestoresState(t *testing.T) {
	for _, ps := range []spec.PolicySpec{
		{Kind: "young"},
		{Kind: "dpnextfailure", Quanta: 30},
	} {
		t.Run(ps.Kind, func(t *testing.T) {
			adv := sessionAdvisor(t, ps)
			live, err := adv.NewSession()
			if err != nil {
				t.Fatal(err)
			}

			// Drive the live session, journaling steps the way the service
			// does: an advised marker whenever no decision is cached, then
			// the observed events.
			var steps []advisor.ReplayStep
			advise := func() advisor.Decision {
				t.Helper()
				if !live.HasDecision() {
					steps = append(steps, advisor.ReplayStep{Advised: true})
				}
				d, err := live.Advise()
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			observe := func(ev advisor.Event) {
				t.Helper()
				if err := live.Observe(ev); err != nil {
					t.Fatal(err)
				}
				steps = append(steps, advisor.ReplayStep{Event: ev})
			}

			d0 := advise()
			observe(advisor.Event{Kind: advisor.EventProgress, Time: d0.Chunk / 2, Work: d0.Chunk / 2})
			observe(advisor.Event{Kind: advisor.EventFailure, Time: d0.Chunk, Unit: 0})
			observe(advisor.Event{Kind: advisor.EventRecovered, Time: d0.Chunk + 120})
			d1 := advise()
			observe(advisor.Event{Kind: advisor.EventCheckpointed, Time: d1.Chunk + d1.Chunk, Work: d1.Chunk})
			want := advise()

			replayed, err := adv.ReplaySession(nil, steps)
			if err != nil {
				t.Fatal(err)
			}
			if !replayed.HasDecision() {
				t.Fatal("replayed session has no cached decision")
			}
			got, err := replayed.Advise()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("replayed decision %+v != live %+v", got, want)
			}
			if replayed.Now() != live.Now() || replayed.Remaining() != live.Remaining() ||
				replayed.Failures() != live.Failures() || replayed.InOutage() != live.InOutage() {
				t.Fatalf("replayed state (now %v rem %v fail %d) != live (now %v rem %v fail %d)",
					replayed.Now(), replayed.Remaining(), replayed.Failures(),
					live.Now(), live.Remaining(), live.Failures())
			}
		})
	}
}

// TestReplaySessionReportsBadStep: a step that cannot re-apply names its
// index — the diagnostic for a corrupt or out-of-order log.
func TestReplaySessionReportsBadStep(t *testing.T) {
	adv := sessionAdvisor(t, spec.PolicySpec{Kind: "young"})
	_, err := adv.ReplaySession(nil, []advisor.ReplayStep{
		{Advised: true},
		{Event: advisor.Event{Kind: advisor.EventRecovered, Time: 10}}, // no outage pending
	})
	if err == nil || !strings.Contains(err.Error(), "replay step 1") {
		t.Fatalf("want step-indexed error, got %v", err)
	}
}

// TestReplaySessionConsultsOnlyRelevantMarkers pins which markers of
// storetest.History a restore consults: all 41 for a policy that
// declares nothing, the 5 after the last recovered event for
// ChunkStateUntilFailure, and for ChunkStateNone only the one after the
// last commit. This is the work a DPNextFailure restore saves.
func TestReplaySessionConsultsOnlyRelevantMarkers(t *testing.T) {
	_, steps := storetest.History()
	markers, after := 0, 0
	for _, st := range steps {
		switch {
		case st.Advised:
			markers++
			after++
		case st.Event.Kind == advisor.EventRecovered:
			after = 0
		}
	}
	job := &advisor.Job{Work: 1e12, C: 600, R: 600, D: 60, Units: 4096, Start: 365 * 86400}
	for _, tc := range []struct {
		state advisor.ChunkState
		want  int
	}{
		{advisor.ChunkStateKept, markers},
		{advisor.ChunkStateUntilFailure, after},
		{advisor.ChunkStateNone, 1},
	} {
		var pol *counterChunk
		adv, err := advisor.NewAdvisor(job, "counter", func() (advisor.Policy, error) {
			pol = &counterChunk{state: tc.state}
			return pol, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := adv.ReplaySession(nil, steps); err != nil {
			t.Fatal(err)
		}
		if pol.n != tc.want {
			t.Errorf("declaration %d: %d consults, want %d (of %d markers)", tc.state, pol.n, tc.want, markers)
		}
	}
	if after >= markers {
		t.Fatalf("the history has %d markers after its last recovery of %d: nothing to skip", after, markers)
	}
}

// TestReplaySessionZeroesLeftoverWork: a periodic session whose last
// commit leaves floating-point residue (at most 1e-9·Work) as Remaining
// served Remaining 0 and a Done decision, because Advise zeroes the
// residue. Its journal holds no marker, and the service snapshots a
// restored session's state before it advises, so the restore itself
// must leave Remaining at exactly 0.
func TestReplaySessionZeroesLeftoverWork(t *testing.T) {
	job := &advisor.Job{Work: 1000, C: 10, R: 10, D: 1, Units: 1}
	adv, err := advisor.NewAdvisor(job, "Periodic", func() (advisor.Policy, error) {
		return policy.NewPeriodic("Periodic", 400), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := adv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var journal []advisor.ReplayStep
	var d advisor.Decision
	for _, work := range []float64{400, 400, 200 - 1e-7} {
		if d, err = live.Advise(); err != nil {
			t.Fatal(err)
		}
		ev := advisor.Event{Kind: advisor.EventCheckpointed, Time: d.Now + work + job.C, Work: work}
		if err := live.Observe(ev); err != nil {
			t.Fatal(err)
		}
		journal = append(journal, advisor.ReplayStep{Event: ev})
	}
	if live.Remaining() == 0 || !live.Done() {
		t.Fatalf("the commits leave remaining %v (done %v), want residue", live.Remaining(), live.Done())
	}
	if d, err = live.Advise(); err != nil || !d.Done {
		t.Fatalf("final decision %+v (err %v), want done", d, err)
	}
	restored, err := adv.ReplaySession(nil, journal)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Remaining() != 0 || live.Remaining() != 0 || !restored.HasDecision() {
		t.Fatalf("restored remaining %v (decision cached %v), live %v; want 0 on both", restored.Remaining(), restored.HasDecision(), live.Remaining())
	}
	if got, _ := restored.Advise(); got != d {
		t.Fatalf("restored decision %+v, want %+v", got, d)
	}
}
