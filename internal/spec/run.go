package spec

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/engine"
	"repro/internal/harness"
)

// CellResult is one completed experiment cell.
type CellResult struct {
	// Index is the cell's position in the experiment's expansion order.
	Index int
	// Spec is the cell's declarative scenario (carrying name and title).
	Spec ScenarioSpec
	// Scenario is the compiled scenario the evaluation ran on.
	Scenario harness.Scenario
	// Periods maps candidate name to its fixed checkpointing period, for
	// the candidates that schedule periodically (the dynamic programs are
	// absent). Consumers read a periodic winner's period without
	// rebuilding the candidate set, and the result retains no policy
	// closures (which would pin DP tables and planners in memory).
	Periods map[string]float64
	// Eval holds the aggregated results; iterate rows with Eval.Rows.
	Eval *harness.Evaluation
}

// errStopIteration signals that the consumer broke out of the iterator.
var errStopIteration = errors.New("spec: iteration stopped")

// RunCell compiles and evaluates one expanded cell on the engine, and
// fills the result's Periods map. It is the per-cell core of Run,
// exported so callers that already hold an expanded cell (the serving
// layer validates and hashes the experiment before executing) do not pay
// a second expansion. The cell runs in eng's scope, or in a scope of its
// own when eng is not one (see engine.Engine.Scope).
func RunCell(ctx context.Context, eng *engine.Engine, cell Cell) (CellResult, error) {
	res, cands, err := runCell(ctx, eng.Scope(), cell)
	if err != nil {
		return res, err
	}
	res.Periods = probePeriods(cands)
	return res, nil
}

// runCell compiles and evaluates one expanded cell on the engine. The
// compiled candidate set rides along for single-cell callers that want
// the Periods map; streaming sweeps discard it.
func runCell(ctx context.Context, eng *engine.Engine, cell Cell) (CellResult, []harness.Candidate, error) {
	sc, err := cell.Scenario.Compile()
	if err != nil {
		return CellResult{Index: cell.Index}, nil, err
	}
	cands, err := cell.Candidates.Build(ctx, eng, sc)
	if err != nil {
		return CellResult{Index: cell.Index}, nil, err
	}
	ev, err := harness.EvaluateWith(ctx, eng, sc, cands)
	if err != nil {
		return CellResult{Index: cell.Index}, nil, err
	}
	return CellResult{Index: cell.Index, Spec: cell.Scenario, Scenario: sc, Eval: ev}, cands, nil
}

// probePeriods instantiates each runnable candidate once to read its
// fixed checkpointing period, when it has one. Only the single-cell
// entry points pay this (batch sweeps never consult Periods).
func probePeriods(cands []harness.Candidate) map[string]float64 {
	periods := map[string]float64{}
	for _, c := range cands {
		if c.SkipReason != "" {
			continue
		}
		if pol, err := c.New(); err == nil {
			if p, ok := pol.(interface{ Period() float64 }); ok {
				periods[c.Name] = p.Period()
			}
		}
	}
	return periods
}

// EvaluateOne executes an experiment that expands to exactly one cell and
// returns its result — the synchronous single-cell entry point behind the
// serving layer's /v1/evaluate. Experiments with more (or fewer) cells are
// rejected before any computation starts; point them at Run instead.
func EvaluateOne(ctx context.Context, eng *engine.Engine, es *ExperimentSpec) (CellResult, error) {
	cells, err := es.Expand()
	if err != nil {
		return CellResult{Index: -1}, err
	}
	if len(cells) != 1 {
		return CellResult{Index: -1}, fmt.Errorf("spec: experiment %q expands to %d cells, need exactly 1", es.Name, len(cells))
	}
	return RunCell(ctx, eng, cells[0])
}

// Run executes the experiment on the engine and returns a streaming
// iterator over its cells. Cells execute concurrently on the engine's
// worker pool, but are yielded strictly in expansion order as the
// completed prefix grows — the sequence is byte-for-byte deterministic at
// any worker count. The terminal iteration carries a non-nil error when a
// cell failed or the context was cancelled; everything yielded before it
// is a valid deterministic prefix. Breaking out of the loop stops the
// underlying execution.
func Run(ctx context.Context, eng *engine.Engine, es *ExperimentSpec) iter.Seq2[CellResult, error] {
	return func(yield func(CellResult, error) bool) {
		cells, err := es.Expand()
		if err != nil {
			yield(CellResult{Index: -1}, err)
			return
		}
		RunCells(ctx, eng, cells)(yield)
	}
}

// RunCells is Run over an already-expanded cell list: callers that
// expanded for validation (the serving layer) stream execution without a
// second expansion. The iteration contract is Run's. The cells run in
// eng's scope, or in one scope of their own when eng is not one, so they
// share trace sets and post-failure grids that no later run could use.
func RunCells(ctx context.Context, eng *engine.Engine, cells []Cell) iter.Seq2[CellResult, error] {
	return func(yield func(CellResult, error) bool) {
		eng := eng.Scope()
		// A consumer breaking out of the range must actually stop the
		// sweep: cancel the engine workers, not just the emission.
		ctx, stop := context.WithCancel(ctx)
		defer stop()
		err := engine.Stream(ctx, eng, len(cells),
			func(i int) (CellResult, error) {
				res, _, err := runCell(ctx, eng, cells[i])
				return res, err
			},
			func(i int, res CellResult) error {
				if !yield(res, nil) {
					stop() // release in-flight workers before unwinding
					return errStopIteration
				}
				return nil
			})
		if err != nil && !errors.Is(err, errStopIteration) {
			yield(CellResult{Index: -1}, err)
		}
	}
}

// RunAll executes the experiment and collects every cell, failing on the
// first cell error. It is the non-streaming convenience over Run.
func RunAll(ctx context.Context, eng *engine.Engine, es *ExperimentSpec) ([]CellResult, error) {
	var out []CellResult
	for res, err := range Run(ctx, eng, es) {
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
