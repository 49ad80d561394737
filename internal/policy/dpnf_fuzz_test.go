package policy

// FuzzDPNextFailureReplan feeds arbitrary (ages, remaining, now, quanta)
// states into the incremental re-planner with the frozen from-scratch
// reference as the oracle: in exact mode every plan must be bit-identical;
// in coarse mode the plan must merely be well-formed (the value bound is
// asserted by the differential suite, which can afford the closed-form
// oracle per state — the fuzzer's job is to hunt for panics and
// divergence on adversarial bit patterns).

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

func FuzzDPNextFailureReplan(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), 1e12, 5e5, 10, false)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), 1.0, 0.0, 2, true)
	f.Add(uint64(7), uint64(1<<40), uint64(12), uint64(99), 3e4, 1e9, 17, true)
	f.Add(^uint64(0), uint64(1), uint64(1<<63), uint64(5), 1e18, 1e3, 31, false)

	f.Fuzz(func(t *testing.T, a0, a1, a2, a3 uint64, remaining, now float64, quanta int, coarse bool) {
		// Clamp the raw inputs into a valid decision state: finite
		// non-negative clock, positive remaining work, quanta in the
		// supported range, and ages derived from the seed words so the
		// multiset shape (duplicates, zeros, huge spreads) is
		// fuzzer-controlled.
		if math.IsNaN(remaining) || math.IsInf(remaining, 0) || remaining <= 0 {
			remaining = 1e9
		}
		remaining = math.Min(remaining, 1e15)
		if math.IsNaN(now) || math.IsInf(now, 0) || now < 0 {
			now = 0
		}
		now = math.Min(now, 1e12)
		if quanta < 2 {
			quanta = 2
		}
		if quanta > 40 {
			quanta = 2 + quanta%39
		}

		const mean = 2e6
		job := &sim.Job{Work: remaining, C: 300, R: 300, D: 60, Units: 4}
		words := [4]uint64{a0, a1, a2, a3}
		var renew []float64
		var failed []int32
		for u := range words {
			// Three low bits pick the unit's history: never failed, failed
			// with a word-derived age, or renewed mid-downtime (renewal
			// slightly in the future).
			switch words[u] % 3 {
			case 1:
				renew = append(renew, now*float64(words[u]%1024)/1024)
				failed = append(failed, int32(u))
			case 2:
				renew = append(renew, now+60*float64(words[u]%64)/64)
				failed = append(failed, int32(u))
			}
		}
		s := &sim.State{Job: job, Now: now, Remaining: remaining,
			Renewals: renew, FailedUnits: failed, Failures: len(failed)}

		laws := []dist.Distribution{
			dist.NewExponentialMean(mean),
			dist.WeibullFromMeanShape(mean, 0.7),
		}
		for _, d := range laws {
			opts := []DPNextFailureOption{WithQuanta(quanta), WithStateApprox(2, 3)}
			if coarse && quanta > 2 {
				opts = append(opts, WithCoarseQuanta(2+int(a0%uint64(quanta-1))))
			}
			p := NewDPNextFailure(d, mean, opts...)
			if err := p.Start(job); err != nil {
				t.Fatalf("%s: Start: %v", d.Name(), err)
			}
			got := p.replan(s)
			for i, ch := range got {
				if math.IsNaN(ch) || ch < 0 || ch > remaining*(1+1e-9) {
					t.Fatalf("%s: chunk %d out of range: %v (plan %v)", d.Name(), i, ch, got)
				}
			}
			if coarse && s.Failures > 0 && p.planner.coarse > 0 {
				continue // approximate by design; well-formedness checked above
			}
			want := p.planner.replanReference(s)
			if len(got) != len(want) {
				t.Fatalf("%s: plan length %d vs reference %d\n got %v\nwant %v", d.Name(), len(got), len(want), got, want)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: chunk %d = %x vs reference %x\n got %v\nwant %v",
						d.Name(), i, math.Float64bits(got[i]), math.Float64bits(want[i]), got, want)
				}
			}
			// Re-plan the identical state: the memo path must serve the
			// same bits.
			again := p.replan(s)
			for i := range again {
				if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: memoized chunk %d diverged", d.Name(), i)
				}
			}
		}
		fuzzReplanManyUnits(t, words, remaining, now, quanta, coarse)
	})
}

// fuzzReplanManyUnits is the fuzz target's many-unit state: sixteen
// units whose histories come from rotations of the seed words, planned
// with a small state approximation so a state often has more than
// sharedGridMaxGroups age groups (an instance-owned grid filled only
// where the solve reads) and sometimes collapses onto reference ages.
// Two instances share grids through a scope, and the planner shares the
// pristine grid; in exact mode every plan, the second instance's and a
// repeat's included, must be the reference's bit for bit.
func fuzzReplanManyUnits(t *testing.T, words [4]uint64, remaining, now float64, quanta int, coarse bool) {
	const mean, units = 2e6, 16
	job := &sim.Job{Work: remaining, C: 300, R: 300, D: 60, Units: units}
	var renew []float64
	var failed []int32
	for u := range units {
		w := bits.RotateLeft64(words[u%4], 13*u)
		switch w % 3 {
		case 1:
			renew = append(renew, now*float64(w%1024)/1024)
			failed = append(failed, int32(u))
		case 2:
			renew = append(renew, now+60*float64(w%64)/64)
			failed = append(failed, int32(u))
		}
	}
	s := &sim.State{Job: job, Now: now, Remaining: remaining,
		Renewals: renew, FailedUnits: failed, Failures: len(failed)}
	for _, d := range []dist.Distribution{dist.WeibullFromMeanShape(mean, 0.7), dist.NewExponentialMean(mean)} {
		opts := []DPNextFailureOption{WithQuanta(quanta), WithStateApprox(3, 8), WithSharedGrids(newGridCache(), d.Name())}
		exact := !coarse || quanta <= 2 || len(failed) == 0
		if !exact {
			opts = append(opts, WithCoarseQuanta(2+int(words[1]%uint64(quanta-1))))
		}
		pl := NewDPNextFailurePlanner(d, mean, opts...)
		scope := newGridCache()
		var want []float64
		if exact {
			want = pl.replanReference(s)
		}
		for k := 0; k < 2; k++ {
			p := pl.NewScopedPolicy(scope)
			if err := p.Start(job); err != nil {
				t.Fatalf("%s: Start: %v", d.Name(), err)
			}
			for rep := 0; rep < 2; rep++ {
				got := p.replan(s)
				for i, ch := range got {
					if math.IsNaN(ch) || ch < 0 || ch > remaining*(1+1e-9) {
						t.Fatalf("%s, %d units: chunk %d out of range: %v (plan %v)", d.Name(), units, i, ch, got)
					}
				}
				if !exact {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s, %d units: plan length %d vs reference %d\n got %v\nwant %v", d.Name(), units, len(got), len(want), got, want)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %d units (instance %d, replan %d): chunk %d = %x vs reference %x\n got %v\nwant %v",
							d.Name(), units, k, rep, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got, want)
					}
				}
			}
		}
	}
}
