package policy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/sim"
)

// ErrLiuInfeasible reports that Liu's frequency function yields
// checkpoint intervals shorter than the checkpoint cost itself, which the
// paper calls out as nonsensical (§5.2.1, footnote 2); the harness reports
// no result for Liu in that case, mirroring the incomplete Liu curves in
// the paper's figures.
var ErrLiuInfeasible = errors.New("policy: Liu schedule has intervals shorter than C")

// Liu reconstructs the non-periodic policy of Liu et al. [17]. It places
// checkpoints with a "checkpointing frequency function"
//
//	n(t) = sqrt(f(t) / (2C)),
//
// f being the platform-level failure density measured from the last
// failure (their model renews the whole platform at each failure): the
// k-th checkpoint happens at execution time t_k with N(t_k) = k, where
// N(t) = integral of n over [0, t]. For decreasing-hazard distributions
// the density diverges at 0, so the earliest intervals are the shortest;
// on large platforms they drop below C and the schedule is infeasible.
type Liu struct {
	dates []float64 // absolute checkpoint dates measured from a renewal
	// pos is the execution time since the anchor (last failure or start).
	pos      float64
	idx      int
	failures int
	c        float64
	feasible error
}

// NewLiu builds the Liu schedule for the given per-unit failure law and
// platform size. Only Exponential and Weibull laws are supported, as in
// the paper. The schedule covers at least `work` units of execution.
func NewLiu(work float64, units int, d dist.Distribution, c float64) (*Liu, error) {
	if !(work > 0) || units <= 0 || !(c > 0) {
		return nil, fmt.Errorf("policy: Liu: invalid arguments work=%v units=%d c=%v", work, units, c)
	}
	plat, err := aggregateRenewal(d, units)
	if err != nil {
		return nil, fmt.Errorf("policy: Liu: %w", err)
	}
	dates, err := liuSchedule(plat, work, c)
	l := &Liu{dates: dates, c: c, feasible: err}
	return l, nil
}

// NewPolicy returns a fresh per-run instance over l's schedule. The dates
// are read-only once NewLiu returns, so concurrent runs share them, and
// each run gets its own cursor: a candidate set integrates the schedule
// once instead of once per run.
func (l *Liu) NewPolicy() *Liu {
	return &Liu{dates: l.dates, c: l.c, feasible: l.feasible}
}

// liuSchedule integrates the frequency function and returns checkpoint
// dates covering at least `work` units of execution. It returns
// ErrLiuInfeasible if any interval (including the first) is at most C.
//
// The total frequency N(inf) = integral of sqrt(f)/sqrt(2C) is finite, so
// the natural schedule contains finitely many dates; once the failure
// law's support is effectively exhausted the schedule is extended by
// repeating the last interval (the frequency function gives no further
// guidance in the far tail).
func liuSchedule(plat dist.Distribution, work, c float64) ([]float64, error) {
	n := func(t float64) float64 {
		f := plat.Density(t)
		if f <= 0 {
			return 0
		}
		return math.Sqrt(f / (2 * c))
	}
	tailCap := plat.Quantile(1 - 1e-12)
	if math.IsInf(tailCap, 1) {
		tailCap = 1e6 * plat.Mean()
	}
	const maxDates = 1 << 20
	var dates []float64
	var acc float64 // N(t) accumulated so far
	target := 1.0
	t := 0.0
	step := math.Max(c/1024, 1e-9)
	prevDate := 0.0
	covered := 0.0
	for covered < work && len(dates) < maxDates && t <= tailCap {
		// Midpoint rule over [t, t+step]; the left endpoint may be +Inf
		// for decreasing-hazard laws.
		mid := n(t + step/2)
		if math.IsInf(mid, 1) {
			mid = n(t + step*0.9)
		}
		inc := mid * step
		// A single step may cross several integer targets when the
		// frequency is high.
		for acc+inc >= target && covered < work && len(dates) < maxDates {
			frac := (target - acc) / inc
			date := t + frac*step
			interval := date - prevDate
			if interval <= c {
				return nil, ErrLiuInfeasible
			}
			covered += interval - c
			dates = append(dates, date)
			prevDate = date
			target++
		}
		acc += inc
		t += step
		if step < plat.Mean()/64 {
			step *= 1.05921
		}
	}
	if len(dates) == 0 {
		return nil, ErrLiuInfeasible
	}
	// Extend with the last interval if the tail was exhausted first.
	last := dates[len(dates)-1]
	if len(dates) >= 2 {
		last -= dates[len(dates)-2]
	}
	if last <= c {
		return nil, ErrLiuInfeasible
	}
	for covered < work && len(dates) < maxDates {
		date := prevDate + last
		covered += last - c
		dates = append(dates, date)
		prevDate = date
	}
	return dates, nil
}

// Name implements sim.Policy.
func (l *Liu) Name() string { return "Liu" }

// Start implements sim.Policy; it fails when the schedule is infeasible.
func (l *Liu) Start(job *sim.Job) error {
	if l.feasible != nil {
		return l.feasible
	}
	l.pos = 0
	l.idx = 0
	l.failures = 0
	return nil
}

// NextChunk implements sim.Policy: the next chunk runs until the next
// scheduled checkpoint date, measured in execution time since the last
// failure (the schedule restarts at each failure, as in Liu's renewal
// model).
func (l *Liu) NextChunk(s *sim.State) float64 {
	if s.Failures != l.failures {
		l.failures = s.Failures
		l.pos = 0
		l.idx = 0
	}
	// Find the next checkpoint date strictly beyond the current position.
	for l.idx < len(l.dates) && l.dates[l.idx] <= l.pos {
		l.idx++
	}
	var chunk float64
	if l.idx < len(l.dates) {
		chunk = l.dates[l.idx] - l.pos - l.c
		l.idx++
	} else {
		// Schedule exhausted: reuse the last interval.
		last := l.dates[len(l.dates)-1]
		if len(l.dates) >= 2 {
			last -= l.dates[len(l.dates)-2]
		}
		chunk = last - l.c
	}
	if chunk <= 0 {
		chunk = l.c // defensive: never stall the simulator
	}
	return math.Min(chunk, s.Remaining)
}

// ChunkState implements advisor.ChunkStateDeclarer: NextChunk advances
// the date cursor, and its first call after a failure resets the cursor
// and the position.
func (l *Liu) ChunkState() sim.ChunkState { return sim.ChunkStateUntilFailure }

// OnChunkCommitted advances the schedule position.
func (l *Liu) OnChunkCommitted(s *sim.State, chunk float64) {
	l.pos += chunk + l.c
}

// Dates returns a copy of the scheduled checkpoint dates (for tests and
// inspection).
func (l *Liu) Dates() []float64 {
	out := make([]float64, len(l.dates))
	copy(out, l.dates)
	return out
}

// Feasible reports whether the schedule is usable.
func (l *Liu) Feasible() bool { return l.feasible == nil }
