package advisor_test

// Advisor stepping throughput: how fast can a scheduler drive a session?
// Periodic sessions are the hot path a million-user deployment would
// lean on (one Advise + one Checkpointed per checkpoint interval) and
// must not allocate at steady state — asserted by
// TestPeriodicSteadyStateZeroAlloc and reported by the benchmarks
// (decisions/sec is 1/ns-per-op; see BENCH.md).

import (
	"context"
	"testing"

	"repro/internal/advisor"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/store/storetest"
)

// benchJob is a petascale-ish geometry with effectively unbounded work,
// so steady-state stepping never hits the done state.
func benchJob() *advisor.Job {
	return &advisor.Job{Work: 1e18, C: 600, R: 600, D: 60, Units: 64}
}

func newPeriodicSession(tb testing.TB) *advisor.Session {
	tb.Helper()
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: policy.NewPeriodic("Periodic", 3600),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

// step is one steady-state advisory cycle: decision, then its commit.
func step(tb testing.TB, sess *advisor.Session) {
	d, err := sess.Advise()
	if err != nil {
		tb.Fatal(err)
	}
	ev := advisor.Event{Kind: advisor.EventCheckpointed, Time: d.Now + d.Chunk + d.CheckpointCost, Work: d.Chunk}
	if err := sess.Observe(ev); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkSessionPeriodicStep(b *testing.B) {
	sess := newPeriodicSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(b, sess)
	}
}

// BenchmarkSessionDPNextFailureStep measures the expensive path: every
// failure invalidates the Algorithm 2 plan, so each cycle pays one
// truncated DP replan (quanta=60 grid) plus the failure/recovery events.
func BenchmarkSessionDPNextFailureStep(b *testing.B) {
	law := dist.NewExponentialMean(125 * 365.25 * 86400)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(60))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	unit := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sess.Advise()
		if err != nil {
			b.Fatal(err)
		}
		// Fail mid-chunk, recover, forcing a fresh plan next Advise.
		at := d.Now + d.Chunk/2
		if err := sess.Observe(advisor.Event{Kind: advisor.EventFailure, Time: at, Unit: unit}); err != nil {
			b.Fatal(err)
		}
		if err := sess.Observe(advisor.Event{Kind: advisor.EventRecovered, Time: at + 660}); err != nil {
			b.Fatal(err)
		}
		unit = (unit + 1) % 64
	}
}

// dpnfFailureStep drives one failure/recovery advisory cycle, cycling
// through units and varying where in the chunk the failure lands so the
// post-recovery age multiset changes bitwise every iteration — each cycle
// pays an honest grid refill + DP re-solve instead of hitting the
// warm-start memo.
func dpnfFailureStep(tb testing.TB, sess *advisor.Session, i int, unit *int) {
	d, err := sess.Advise()
	if err != nil {
		tb.Fatal(err)
	}
	fracs := [4]float64{0.3, 0.45, 0.55, 0.7}
	at := d.Now + d.Chunk*fracs[i%len(fracs)]
	if err := sess.Observe(advisor.Event{Kind: advisor.EventFailure, Time: at, Unit: *unit}); err != nil {
		tb.Fatal(err)
	}
	if err := sess.Observe(advisor.Event{Kind: advisor.EventRecovered, Time: at + 660}); err != nil {
		tb.Fatal(err)
	}
	*unit = (*unit + 1) % 64
}

// BenchmarkSessionDPNextFailureStepCold is the from-scratch incremental
// cost: the failure offset varies per iteration, so the sorted age
// multiset is never bitwise-stationary and the warm-start memo cannot
// serve the previous plan (unlike the perfectly cyclic ...Step pattern
// above, where it does). This is the number to compare against the old
// allocate-everything solver.
func BenchmarkSessionDPNextFailureStepCold(b *testing.B) {
	law := dist.NewExponentialMean(125 * 365.25 * 86400)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(60))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	unit := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpnfFailureStep(b, sess, i, &unit)
	}
}

// BenchmarkSessionDPNextFailureStepWeibull is the ...StepCold failure
// pattern on the paper's Weibull law (125-year unit MTBF, shape 0.7) at
// the resolution of the sessions benchmark spec. The other session rungs
// plan on an Exponential law, whose cumulative hazard is one division;
// here every survival-grid entry costs a Weibull power per age group, so
// this rung shows what the grid fill costs a re-plan.
func BenchmarkSessionDPNextFailureStepWeibull(b *testing.B) {
	law := dist.WeibullFromMeanShape(125*365.25*86400, 0.7)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(60))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	unit := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpnfFailureStep(b, sess, i, &unit)
	}
}

// BenchmarkSessionDPNextFailureStepCoarse is the cold pattern with the
// opt-in coarse re-planning mode: post-failure solves run at 12 quanta on
// the 256-point grid instead of 60 on 1024.
func BenchmarkSessionDPNextFailureStepCoarse(b *testing.B) {
	law := dist.NewExponentialMean(125 * 365.25 * 86400)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(),
		policy.WithQuanta(60), policy.WithCoarseQuanta(12))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	unit := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpnfFailureStep(b, sess, i, &unit)
	}
}

// BenchmarkSessionDPNextFailureCommit measures the cheap DP path: plan
// walking between failures (no replan, just cursor pops and commits).
func BenchmarkSessionDPNextFailureCommit(b *testing.B) {
	law := dist.NewExponentialMean(125 * 365.25 * 86400)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(60))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(b, sess)
	}
}

// BenchmarkReplaySessionHistory is the in-process half of a restore:
// Advisor.ReplaySession over storetest.History, the 282-record history
// of a recover-cluster session. Under dpnextfailure the replay consults
// the policy at the markers after the last recovered event; under young
// it consults no marker and advises once at the end. young-exascale
// replays the young session on the 2^20 units of the exascale platform,
// where what a session holds per unit would show. One untimed replay
// first warms the shared planner, as a replica's first restore does.
func BenchmarkReplaySessionHistory(b *testing.B) {
	ss, steps := storetest.History()
	young := *ss
	young.Policy = spec.PolicySpec{Kind: "young"}
	exascale := young
	exascale.Scenario.Platform, exascale.Scenario.P = spec.PlatformRef{Preset: "exascale"}, 1<<20
	for _, c := range []struct {
		name string
		ss   *spec.SessionSpec
	}{{"dpnextfailure", ss}, {"young", &young}, {"young-exascale", &exascale}} {
		b.Run(c.name, func(b *testing.B) {
			adv, err := spec.CompileAdvisor(context.Background(), engine.New(engine.Config{Cache: engine.NewCache(0)}), c.ss)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := adv.ReplaySession(nil, steps); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := adv.ReplaySession(nil, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPeriodicSteadyStateZeroAlloc pins the Periodic hot path at zero
// allocations per Advise+Observe cycle: the serving layer can step
// thousands of concurrent periodic sessions without GC pressure.
func TestPeriodicSteadyStateZeroAlloc(t *testing.T) {
	sess := newPeriodicSession(t)
	step(t, sess) // warm up: first decision resolves the rationale path
	allocs := testing.AllocsPerRun(1000, func() { step(t, sess) })
	if allocs != 0 {
		t.Fatalf("periodic Advise/Observe cycle allocates %.1f times per step, want 0", allocs)
	}
}

func newDPNFSession(t *testing.T) *advisor.Session {
	t.Helper()
	law := dist.NewExponentialMean(125 * 365.25 * 86400)
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(60))
	sess, err := advisor.NewSession(advisor.Config{
		Job:    benchJob(),
		Policy: planner.NewPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestDPNextFailureCommitZeroAlloc pins the DPNextFailure commit path
// (plan-cursor walking between failures) at zero allocations once the
// planner's scratch slabs are warm.
func TestDPNextFailureCommitZeroAlloc(t *testing.T) {
	sess := newDPNFSession(t)
	// Warm: one failure puts the session on the incremental replan path
	// and sizes the slabs; a few commits settle the advisory bookkeeping.
	unit := 0
	for i := 0; i < 3; i++ {
		dpnfFailureStep(t, sess, i, &unit)
	}
	for i := 0; i < 80; i++ {
		step(t, sess)
	}
	allocs := testing.AllocsPerRun(300, func() { step(t, sess) })
	if allocs != 0 {
		t.Fatalf("DPNextFailure commit cycle allocates %.1f times per step, want 0", allocs)
	}
}

// TestDPNextFailureFailureStepZeroAlloc pins the full failure cycle —
// Advise with a fresh replan (grid refill + DP solve) plus the failure
// and recovery events — at zero allocations once every unit has failed
// at least once (so FailedUnits no longer grows).
func TestDPNextFailureFailureStepZeroAlloc(t *testing.T) {
	sess := newDPNFSession(t)
	unit := 0
	// Warm past 2*64 iterations: all units enter FailedUnits and all
	// scratch slabs (groups, grid, DP tables, decision buffers) reach
	// their steady-state capacity.
	for i := 0; i < 140; i++ {
		dpnfFailureStep(t, sess, i, &unit)
	}
	i := 140
	allocs := testing.AllocsPerRun(200, func() {
		dpnfFailureStep(t, sess, i, &unit)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DPNextFailure failure cycle allocates %.1f times per step, want 0", allocs)
	}
}
