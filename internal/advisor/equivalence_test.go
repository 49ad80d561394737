package advisor_test

// The API-completeness regression of the advisor extraction: for every
// policy kind in the spec registry, a sim.Run over the table2 fixture
// scenario is recorded (decisions and events, in order, through the
// session taps) and then replayed through a fresh advisor Session. Every
// replayed decision must be bit-identical — the online API reproduces the
// simulator's decisions exactly, for the dynamic programs included. The
// subtests run in parallel, so the shared planners (engine cache) are
// exercised concurrently and `go test -race` covers the whole path.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

const table2Fixture = "../../cmd/chkpt-tables/testdata/table2.json"

// fixtureScenario compiles the first cell of the table2 fixture.
func fixtureScenario(t *testing.T) (spec.ScenarioSpec, harness.Scenario, harness.Derived) {
	t.Helper()
	es, err := spec.LoadExperiment(table2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := es.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ss := cells[0].Scenario
	sc, err := ss.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	return ss, sc, d
}

// recorded is one tap capture: either a decision or an event.
type recorded struct {
	isDecision bool
	d          advisor.Decision
	ev         advisor.Event
}

// replayCase is one simulable policy configuration of the fixture
// scenario.
type replayCase struct {
	name string
	cand harness.Candidate
}

// simulableCases compiles every simulable policy kind in the spec
// registry on the fixture scenario, plus DPNextFailure's coarse mode.
func simulableCases(t *testing.T, sc harness.Scenario, d harness.Derived) []replayCase {
	t.Helper()
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	env := spec.PolicyEnv{Engine: eng, Scenario: sc, Derived: d}

	// Parameters per kind where the zero PolicySpec is not buildable.
	params := map[string]spec.PolicySpec{
		"period":        {Kind: "period", Period: 3600},
		"dpnextfailure": {Kind: "dpnextfailure", Quanta: 30},
		"dpmakespan":    {Kind: "dpmakespan", Quanta: 30},
	}
	type kindSpec struct {
		name string
		ps   spec.PolicySpec
	}
	var kinds []kindSpec
	for _, kind := range spec.PolicyKinds() {
		if kind == "lowerbound" {
			continue // the omniscient bound is not a simulable policy
		}
		ps, ok := params[kind]
		if !ok {
			ps = spec.PolicySpec{Kind: kind}
		}
		kinds = append(kinds, kindSpec{name: kind, ps: ps})
	}
	// The approximate coarse re-planning mode must satisfy the same
	// replay contract: approximation changes which plan is chosen, never
	// the determinism of serving it.
	kinds = append(kinds, kindSpec{
		name: "dpnextfailure-coarse",
		ps:   spec.PolicySpec{Kind: "dpnextfailure", Quanta: 30, CoarseQuanta: 10},
	})

	var cases []replayCase
	for _, k := range kinds {
		cand, err := k.ps.Candidate(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if cand.SkipReason != "" {
			t.Fatalf("%s: unexpectedly unschedulable on the fixture scenario: %s", k.name, cand.SkipReason)
		}
		cases = append(cases, replayCase{name: k.name, cand: cand})
	}
	return cases
}

func TestSessionReplayMatchesSimulatorForEveryPolicyKind(t *testing.T) {
	_, sc, d := fixtureScenario(t)
	job := d.Job(sc.Start)
	for _, tc := range simulableCases(t, sc, d) {
		cand := tc.cand
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for traceIdx := 0; traceIdx < 2; traceIdx++ {
				ts := trace.GenerateRenewal(sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(traceIdx))

				// Record a simulator run through a tapped session.
				var stream []recorded
				pol, err := cand.New()
				if err != nil {
					t.Fatal(err)
				}
				sess, err := advisor.NewSession(advisor.Config{
					Job:        job,
					Policy:     pol,
					History:    sim.PrereleaseHistory(job, ts),
					OnDecision: func(d advisor.Decision) { stream = append(stream, recorded{isDecision: true, d: d}) },
					OnEvent:    func(ev advisor.Event) { stream = append(stream, recorded{ev: ev}) },
				})
				if err != nil {
					t.Fatal(err)
				}
				recRes, err := sim.RunSession(context.Background(), job, sess, ts)
				if err != nil {
					t.Fatal(err)
				}
				if len(stream) == 0 {
					t.Fatal("no decisions recorded")
				}

				// The plain Run must agree with the tapped RunSession.
				pol2, err := cand.New()
				if err != nil {
					t.Fatal(err)
				}
				plainRes, err := sim.Run(context.Background(), job, pol2, ts)
				if err != nil {
					t.Fatal(err)
				}
				if plainRes != recRes {
					t.Fatalf("trace %d: RunSession result %+v != Run result %+v", traceIdx, recRes, plainRes)
				}

				// Replay: feed the recorded events to a fresh session and
				// demand bit-identical decisions at every decision point.
				pol3, err := cand.New()
				if err != nil {
					t.Fatal(err)
				}
				replay, err := advisor.NewSession(advisor.Config{
					Job:     job,
					Policy:  pol3,
					History: sim.PrereleaseHistory(job, ts),
				})
				if err != nil {
					t.Fatal(err)
				}
				decisions := 0
				for i, r := range stream {
					if r.isDecision {
						got, err := replay.Advise()
						if err != nil {
							t.Fatalf("trace %d, step %d: Advise: %v", traceIdx, i, err)
						}
						if got != r.d {
							t.Fatalf("trace %d, step %d: replayed decision %+v != recorded %+v", traceIdx, i, got, r.d)
						}
						decisions++
						continue
					}
					if err := replay.Observe(r.ev); err != nil {
						t.Fatalf("trace %d, step %d: Observe(%+v): %v", traceIdx, i, r.ev, err)
					}
				}
				if !replay.Done() {
					t.Fatalf("trace %d: replayed session not done (remaining %v)", traceIdx, replay.Remaining())
				}
				t.Logf("trace %d: %d decisions replayed bit-identically (%d failures)", traceIdx, decisions, recRes.Failures)
			}
		})
	}
}

// TestRunSessionRejectsInconsistentSession pins the RunSession contract:
// a session that is not fresh-and-consistent with the trace is refused,
// not silently diverged from.
func TestRunSessionRejectsInconsistentSession(t *testing.T) {
	_, sc, d := fixtureScenario(t)
	job := d.Job(sc.Start)
	ts := trace.GenerateRenewal(sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(0))

	adv, err := advisor.NewAdvisor(job, "Periodic", func() (advisor.Policy, error) {
		return fixedChunk{3600}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Advance the session past the fresh state.
	if _, err := sess.Advise(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(advisor.Event{Kind: advisor.EventCheckpointed, Time: job.Start + 4200, Work: 3600}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSession(context.Background(), job, sess, ts); err == nil {
		t.Fatal("stale session accepted")
	}
}

type fixedChunk struct{ chunk float64 }

func (f fixedChunk) Name() string                       { return "fixed" }
func (f fixedChunk) Start(job *advisor.Job) error       { return nil }
func (f fixedChunk) NextChunk(s *advisor.State) float64 { return f.chunk }

// recordSteps runs the simulator over ts through a session tapped the
// way the service journals one: an advised marker at every decision
// point where the policy is consulted, and every applied event.
func recordSteps(t *testing.T, job *advisor.Job, newPolicy func() (advisor.Policy, error), history []advisor.PastFailure, ts *trace.Set) []advisor.ReplayStep {
	t.Helper()
	pol, err := newPolicy()
	if err != nil {
		t.Fatal(err)
	}
	var steps []advisor.ReplayStep
	sess, err := advisor.NewSession(advisor.Config{
		Job:        job,
		Policy:     pol,
		History:    history,
		OnDecision: func(advisor.Decision) { steps = append(steps, advisor.ReplayStep{Advised: true}) },
		OnEvent:    func(ev advisor.Event) { steps = append(steps, advisor.ReplayStep{Event: ev}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSession(context.Background(), job, sess, ts); err != nil {
		t.Fatal(err)
	}
	return steps
}

// journalCuts returns up to about n prefix lengths of steps at which a
// service journal can end (after a marker, or in an outage), spread over
// the stream, plus the whole stream, the first prefixes that end in a
// cascading failure and the first that end at the first consult after a
// recovery.
func journalCuts(steps []advisor.ReplayStep, n int) []int {
	var cands, special []int
	for k := 1; k <= len(steps); k++ {
		last := steps[k-1]
		if !last.Advised && last.Event.Kind != advisor.EventFailure {
			continue
		}
		cands = append(cands, k)
		if k < 2 || len(special) >= 10 {
			continue
		}
		prev := steps[k-2]
		cascade := !last.Advised && !prev.Advised && prev.Event.Kind == advisor.EventFailure
		replan := last.Advised && !prev.Advised && prev.Event.Kind == advisor.EventRecovered
		if cascade || replan {
			special = append(special, k)
		}
	}
	stride := max(1, len(cands)/n)
	cuts := special
	for i := 0; i < len(cands); i += stride {
		cuts = append(cuts, cands[i])
	}
	cuts = append(cuts, len(steps))
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// replayEveryMarker is the reference restore: a fresh session that
// consults the policy at every advised marker, whatever the policy
// declares.
func replayEveryMarker(adv *advisor.Advisor, history []advisor.PastFailure, steps []advisor.ReplayStep) (*advisor.Session, error) {
	s, err := adv.NewSession(history...)
	if err != nil {
		return nil, err
	}
	for i, st := range steps {
		if st.Advised {
			if _, err := s.Advise(); err != nil {
				return nil, fmt.Errorf("step %d (advised): %w", i, err)
			}
		} else if err := s.Observe(st.Event); err != nil {
			return nil, fmt.Errorf("step %d (%s event): %w", i, st.Event.Kind, err)
		}
	}
	return s, nil
}

// withoutMarkers returns steps without their advised markers: the
// journal the service keeps for a policy that declares ChunkStateNone
// when, as in a simulator stream, no progress event precedes a consult.
func withoutMarkers(steps []advisor.ReplayStep) []advisor.ReplayStep {
	out := make([]advisor.ReplayStep, 0, len(steps))
	for _, st := range steps {
		if !st.Advised {
			out = append(out, st)
		}
	}
	return out
}

// sessionSnapshot is a session's observable state.
type sessionSnapshot struct {
	Now, Remaining              float64
	Failures                    int
	InOutage, Done, HasDecision bool
}

func snapshotOf(s *advisor.Session) sessionSnapshot {
	return sessionSnapshot{s.Now(), s.Remaining(), s.Failures(), s.InOutage(), s.Done(), s.HasDecision()}
}

// continuationDiff drives a reference session and a restored one
// through one shared continuation of up to n decisions, starting with
// the standing decision, and describes the first decision or event
// outcome on which they differ ("" when none does). Two of every three
// decisions are committed; on the third, a failure strikes mid-chunk, a
// second one follows during the outage, and the platform recovers.
func continuationDiff(want, got *advisor.Session, job advisor.Job, n int) string {
	apply := func(ev advisor.Event) string {
		errW, errG := want.Observe(ev), got.Observe(ev)
		if (errW == nil) != (errG == nil) {
			return fmt.Sprintf("event %+v: error %v, want %v", ev, errG, errW)
		}
		return ""
	}
	for i := range n {
		if want.InOutage() {
			if d := apply(advisor.Event{Kind: advisor.EventRecovered, Time: want.Now() + job.D + job.R}); d != "" {
				return d
			}
		}
		dw, errW := want.Advise()
		dg, errG := got.Advise()
		if dw != dg || (errW == nil) != (errG == nil) {
			return fmt.Sprintf("decision %d: %+v (err %v), want %+v (err %v)", i, dg, errG, dw, errW)
		}
		if errW != nil || dw.Done {
			return ""
		}
		now := want.Now()
		if i%3 != 2 {
			if d := apply(advisor.Event{Kind: advisor.EventCheckpointed, Time: now + dw.Chunk + dw.CheckpointCost, Work: dw.Chunk}); d != "" {
				return d
			}
			continue
		}
		at := now + dw.Chunk/2
		if d := apply(advisor.Event{Kind: advisor.EventFailure, Time: at, Unit: i % job.Units}); d != "" {
			return d
		}
		if d := apply(advisor.Event{Kind: advisor.EventFailure, Time: at + job.D/2, Unit: (i + 1) % job.Units}); d != "" {
			return d
		}
	}
	return ""
}

// checkReplayEquivalence rebuilds the session recorded in steps at each
// cut twice — by the reference loop, which consults every marker, and
// by ReplaySession — and returns the first difference in observable
// state, standing decision or the next 30 decisions of a shared
// continuation. For a policy whose replay needs no markers it also
// restores from the journal without them.
func checkReplayEquivalence(adv *advisor.Advisor, history []advisor.PastFailure, steps []advisor.ReplayStep, cuts []int) error {
	probe, err := adv.NewSession(history...)
	if err != nil {
		return err
	}
	for _, k := range cuts {
		journals := [][]advisor.ReplayStep{steps[:k]}
		if !probe.ConsultNeedsMarker() {
			journals = append(journals, withoutMarkers(steps[:k]))
		}
		for _, journal := range journals {
			want, err := replayEveryMarker(adv, history, steps[:k])
			if err != nil {
				return fmt.Errorf("cut %d: reference: %w", k, err)
			}
			got, err := adv.ReplaySession(history, journal)
			if err != nil {
				return fmt.Errorf("cut %d (%d journal steps): %w", k, len(journal), err)
			}
			if w, g := snapshotOf(want), snapshotOf(got); w != g {
				return fmt.Errorf("cut %d (%d journal steps): restored state %+v, want %+v", k, len(journal), g, w)
			}
			if d := continuationDiff(want, got, adv.Job(), 30); d != "" {
				return fmt.Errorf("cut %d (%d journal steps): %s", k, len(journal), d)
			}
		}
	}
	return nil
}

// TestReplaySessionMatchesMarkerReplayForEveryPolicyKind is the
// equivalence suite of the ChunkState declarations. For every simulable
// policy kind it records a simulator stream with an advised marker at
// every decision point (the fixture's one-hour MTBF fails the platform
// during many of its recoveries, so the stream holds cascading
// failures) and restores it at cuts where a service journal can end.
// ReplaySession, which consults only the markers the policy's
// declaration leaves relevant, must rebuild what consulting every
// marker rebuilds.
func TestReplaySessionMatchesMarkerReplayForEveryPolicyKind(t *testing.T) {
	_, sc, d := fixtureScenario(t)
	job := d.Job(sc.Start)
	ts := trace.GenerateRenewal(sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(0))
	history := sim.PrereleaseHistory(job, ts)
	for _, tc := range simulableCases(t, sc, d) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			adv, err := advisor.NewAdvisor(job, tc.name, tc.cand.New)
			if err != nil {
				t.Fatal(err)
			}
			steps := recordSteps(t, job, tc.cand.New, history, ts)
			cascades := 0
			for i := 1; i < len(steps); i++ {
				if !steps[i].Advised && steps[i].Event.Kind == advisor.EventFailure && !steps[i-1].Advised && steps[i-1].Event.Kind == advisor.EventFailure {
					cascades++
				}
			}
			if cascades == 0 {
				t.Fatal("the recorded stream has no cascading failure")
			}
			cuts := journalCuts(steps, 24)
			if err := checkReplayEquivalence(adv, history, steps, cuts); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d steps, %d cascading failures, %d cuts restored both ways", len(steps), cascades, len(cuts))
		})
	}
}

// counterChunk is a test policy whose NextChunk advances a counter that
// nothing resets, and whose chunk cycles with it. Its declaration is a
// parameter: only ChunkStateKept is true of it.
type counterChunk struct {
	n     int
	state advisor.ChunkState
}

func (p *counterChunk) Name() string                   { return "counter" }
func (p *counterChunk) Start(*advisor.Job) error       { p.n = 0; return nil }
func (p *counterChunk) ChunkState() advisor.ChunkState { return p.state }
func (p *counterChunk) NextChunk(*advisor.State) float64 {
	p.n++
	return 900 * float64(1+p.n%4)
}

// TestReplayEquivalenceCatchesFalseDeclaration: the suite's check fails
// for a policy that declares that NextChunk keeps no state, or loses it
// at failures, while it advances a counter, and passes for the same
// policy declaring the truth.
func TestReplayEquivalenceCatchesFalseDeclaration(t *testing.T) {
	_, sc, d := fixtureScenario(t)
	job := d.Job(sc.Start)
	ts := trace.GenerateRenewal(sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(0))
	history := sim.PrereleaseHistory(job, ts)
	for _, state := range []advisor.ChunkState{advisor.ChunkStateKept, advisor.ChunkStateNone, advisor.ChunkStateUntilFailure} {
		newPolicy := func() (advisor.Policy, error) { return &counterChunk{state: state}, nil }
		adv, err := advisor.NewAdvisor(job, "counter", newPolicy)
		if err != nil {
			t.Fatal(err)
		}
		steps := recordSteps(t, job, newPolicy, history, ts)
		err = checkReplayEquivalence(adv, history, steps, journalCuts(steps, 8))
		switch truthful := state == advisor.ChunkStateKept; {
		case truthful && err != nil:
			t.Fatalf("declaration %d: the truthful policy failed the check: %v", state, err)
		case !truthful && err == nil:
			t.Fatalf("declaration %d: a counter advanced in NextChunk passed the check", state)
		case !truthful:
			t.Logf("declaration %d caught: %v", state, err)
		}
	}
}
