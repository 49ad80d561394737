package harness

import (
	"context"
	"fmt"
	"iter"
	"math"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Stats summarizes a sample.
type Stats struct {
	Mean, Std, Min, Max float64
	N                   int
}

// NewStats computes summary statistics (population standard deviation, as
// in the paper's tables).
func NewStats(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), Std: math.NaN()}
	}
	s := Stats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	return s
}

// Evaluation is the result of running a candidate set over a scenario's
// traces with the paper's §4.1 methodology.
type Evaluation struct {
	Scenario Scenario
	Derived  Derived
	// Order lists result rows in display order: LowerBound first, then the
	// candidates in their given order (skipped ones excluded).
	Order []string
	// Degradation maps policy -> degradation-from-best statistics, where
	// the per-trace reference is the best makespan among the runnable
	// heuristics (LowerBound excluded from the reference, as in §4.1).
	Degradation map[string]Stats
	// MakespanSec maps policy -> raw makespan statistics in seconds.
	MakespanSec map[string]Stats
	// Failures maps policy -> failures-per-run statistics (§5.2.2's spare
	// processor discussion).
	Failures map[string]Stats
	// Skipped maps policies that could not run to the reason.
	Skipped map[string]string
	// SkippedOrder lists the skipped policies in candidate order, so
	// renderers iterating them stay deterministic (ranging over the
	// Skipped map is not).
	SkippedOrder []string
	// HorizonExceededRuns counts runs that consumed the entire trace.
	HorizonExceededRuns int
}

// Row is one policy's aggregated results within an Evaluation, in the
// row order of the paper's tables.
type Row struct {
	// Name is the policy's display name ("LowerBound" for the omniscient
	// bound, otherwise the candidate name).
	Name string
	// LowerBound marks the omniscient-bound row, which has no Failures
	// statistics and is excluded from the degradation reference.
	LowerBound bool
	// Degradation is the degradation-from-best statistics (§4.1).
	Degradation Stats
	// Makespan is the raw makespan statistics in seconds.
	Makespan Stats
	// Failures is the failures-per-run statistics (zero Stats for the
	// LowerBound row).
	Failures Stats
	// Skipped holds the skip reason for policies that could not run; all
	// statistics fields are zero for skipped rows.
	Skipped string
}

// Rows iterates the evaluation's result rows in display order — the
// LowerBound first, then each runnable candidate, then the skipped
// candidates — keyed by row index. It is the streaming-friendly accessor
// behind the table renderers: consumers can range-break at any point.
func (ev *Evaluation) Rows() iter.Seq2[int, Row] {
	return func(yield func(int, Row) bool) {
		i := 0
		for _, name := range ev.Order {
			r := Row{
				Name:        name,
				LowerBound:  name == "LowerBound",
				Degradation: ev.Degradation[name],
				Makespan:    ev.MakespanSec[name],
			}
			if f, ok := ev.Failures[name]; ok {
				r.Failures = f
			}
			if !yield(i, r) {
				return
			}
			i++
		}
		for _, name := range ev.SkippedOrder {
			if !yield(i, Row{Name: name, Skipped: ev.Skipped[name]}) {
				return
			}
			i++
		}
	}
}

// Evaluate runs every candidate over the scenario's traces and aggregates
// the degradation-from-best metric using the default engine. All candidates
// (and the omniscient LowerBound) see identical failure traces.
func Evaluate(ctx context.Context, sc Scenario, cands []Candidate) (*Evaluation, error) {
	return EvaluateWith(ctx, engine.Default(), sc, cands)
}

// traceCell is the result of one (scenario × policy-set × trace) cell.
type traceCell struct {
	lower           float64
	makespans       []float64 // by runnable candidate
	failures        []float64
	horizonExceeded int
}

// EvaluateWith runs the evaluation on the given engine: traces execute
// concurrently on its worker pool (the worker count never changes the
// result — cells are aggregated by trace index), and failure traces are
// drawn through its scope, when it is one, so scenarios of that scope
// that share (law, geometry, seed) cells reuse them. Cancelling the
// context aborts in-flight simulations and returns ctx.Err() promptly.
func EvaluateWith(ctx context.Context, eng *engine.Engine, sc Scenario, cands []Candidate) (*Evaluation, error) {
	d, err := sc.Derive()
	if err != nil {
		return nil, err
	}
	var runnable []Candidate
	skipped := map[string]string{}
	var skippedOrder []string
	for _, c := range cands {
		if c.SkipReason != "" {
			skipped[c.Name] = c.SkipReason
			skippedOrder = append(skippedOrder, c.Name)
			continue
		}
		runnable = append(runnable, c)
	}
	if len(runnable) == 0 {
		return nil, ErrNoCandidates
	}

	nc := len(runnable)
	job := d.Job(sc.Start)
	cells, err := engine.Run(ctx, eng, sc.Traces, func(i int) (traceCell, error) {
		cell := traceCell{
			makespans: make([]float64, nc),
			failures:  make([]float64, nc),
		}
		ts := eng.GenerateTraces(ctx, sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(i))
		lb, err := sim.LowerBound(ctx, job, ts)
		if err != nil {
			return cell, fmt.Errorf("trace %d: LowerBound: %w", i, err)
		}
		cell.lower = lb.Makespan
		for j, c := range runnable {
			pol, err := c.New()
			if err != nil {
				return cell, fmt.Errorf("trace %d: %s: %w", i, c.Name, err)
			}
			res, err := sim.Run(ctx, job, pol, ts)
			if err != nil {
				return cell, fmt.Errorf("trace %d: %s: %w", i, c.Name, err)
			}
			cell.makespans[j] = res.Makespan
			cell.failures[j] = float64(res.Failures)
			if res.HorizonExceeded {
				cell.horizonExceeded++
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	makespans := make([][]float64, sc.Traces) // [trace][candidate]
	failures := make([][]float64, sc.Traces)
	lower := make([]float64, sc.Traces)
	horizonExceeded := make([]int, sc.Traces)
	for i, cell := range cells {
		makespans[i] = cell.makespans
		failures[i] = cell.failures
		lower[i] = cell.lower
		horizonExceeded[i] = cell.horizonExceeded
	}

	ev := &Evaluation{
		Scenario:     sc,
		Derived:      d,
		Degradation:  map[string]Stats{},
		MakespanSec:  map[string]Stats{},
		Failures:     map[string]Stats{},
		Skipped:      skipped,
		SkippedOrder: skippedOrder,
	}
	for _, n := range horizonExceeded {
		ev.HorizonExceededRuns += n
	}

	// Per-trace reference: best heuristic makespan (§4.1).
	degr := make([][]float64, nc)
	for j := range degr {
		degr[j] = make([]float64, sc.Traces)
	}
	lbDegr := make([]float64, sc.Traces)
	for i := 0; i < sc.Traces; i++ {
		best := math.Inf(1)
		for j := 0; j < nc; j++ {
			best = math.Min(best, makespans[i][j])
		}
		for j := 0; j < nc; j++ {
			degr[j][i] = makespans[i][j] / best
		}
		lbDegr[i] = lower[i] / best
	}

	ev.Order = append(ev.Order, "LowerBound")
	ev.Degradation["LowerBound"] = NewStats(lbDegr)
	ev.MakespanSec["LowerBound"] = NewStats(lower)
	for j, c := range runnable {
		ev.Order = append(ev.Order, c.Name)
		ev.Degradation[c.Name] = NewStats(degr[j])
		ev.MakespanSec[c.Name] = newStatsColumn(makespans, j)
		ev.Failures[c.Name] = newStatsColumn(failures, j)
	}
	return ev, nil
}

func newStatsColumn(rows [][]float64, j int) Stats {
	xs := make([]float64, len(rows))
	for i := range rows {
		xs[i] = rows[i][j]
	}
	return NewStats(xs)
}
