package exper

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
)

// RunSpec executes a declarative experiment and renders each completed
// cell as it streams in: one table per cell, in deterministic expansion
// order at any worker count. The "series" layout is the exception — it
// pivots every cell into one curve table, so it renders after the last
// cell. RunSpec is the shared engine behind both the registered table
// experiments and the cmd tools' -spec files.
func RunSpec(ctx context.Context, w io.Writer, p Params, es *spec.ExperimentSpec) error {
	if es.Table == "series" {
		return runSeriesSpec(ctx, w, p, es)
	}
	for res, err := range spec.Run(ctx, p.engine(), es) {
		if err != nil {
			return err
		}
		t, err := RenderCell(es.Table, res)
		if err != nil {
			return err
		}
		if err := emit(w, p, t); err != nil {
			return err
		}
	}
	return nil
}

// runSeriesSpec renders all cells as one pivoted curve table: one column
// per policy, one row per cell X value (the figures' data layout). Each
// cell's evaluation contributes one point to every policy's
// average-degradation curve; curves are ordered by first appearance
// across cells, and skipped policies contribute NaN points ("n/a" in the
// rendered table, like the paper's incomplete figure curves).
func runSeriesSpec(ctx context.Context, w io.Writer, p Params, es *spec.ExperimentSpec) error {
	results, err := spec.RunAll(ctx, p.engine(), es)
	if err != nil {
		return err
	}
	ss := es.Series
	if len(ss.X) > 0 && len(ss.X) != len(results) {
		return fmt.Errorf("exper: series x has %d values for %d cells", len(ss.X), len(results))
	}
	byPolicy := map[string]*harness.Series{}
	var policyOrder []string
	for i, res := range results {
		x := float64(i)
		if len(ss.X) > 0 {
			x = ss.X[i]
		}
		for _, row := range res.Eval.Rows() {
			s, ok := byPolicy[row.Name]
			if !ok {
				s = &harness.Series{Label: row.Name}
				byPolicy[row.Name] = s
				policyOrder = append(policyOrder, row.Name)
			}
			y := row.Degradation.Mean
			if row.Skipped != "" {
				y = math.NaN()
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
	}
	series := make([]harness.Series, 0, len(policyOrder))
	for _, name := range policyOrder {
		series = append(series, *byPolicy[name])
	}
	return emit(w, p, harness.SeriesTable(ss.Title, ss.XLabel, series))
}

// RenderCell lays out one cell's evaluation according to the experiment's
// table kind ("" and "degradation" give the Tables 2-4 layout, "spares"
// the §5.2.2 one). It is exported for the serving layer, whose streamed
// cells must render byte-identically to the cmd tools' stdout.
func RenderCell(kind string, res spec.CellResult) (*harness.Table, error) {
	title := res.Spec.Title
	if title == "" {
		title = cellTitle(res)
	}
	switch kind {
	case "", "degradation":
		return harness.DegradationTable(title, res.Eval), nil
	case "spares":
		return sparesTable(title, res.Eval), nil
	}
	return nil, fmt.Errorf("exper: unknown table layout %q", kind)
}

// cellTitle synthesizes a title for cells that do not declare one (grid
// sweeps), from the compiled scenario's load-bearing parameters.
func cellTitle(res spec.CellResult) string {
	sc := res.Scenario
	return fmt.Sprintf("%s: p=%d, %s, %s overheads, %s work (%d traces)",
		sc.Name, sc.P, sc.Dist.String(), sc.Overhead, sc.Work, sc.Traces)
}

// sparesTable renders the §5.2.2 failures-per-run layout.
func sparesTable(title string, ev *harness.Evaluation) *harness.Table {
	t := &harness.Table{
		Title:  title,
		Header: []string{"Heuristic", "avg failures", "max failures", "avg makespan (days)"},
	}
	for _, row := range ev.Rows() {
		if row.LowerBound || row.Skipped != "" {
			continue
		}
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.1f", row.Failures.Mean),
			fmt.Sprintf("%.0f", row.Failures.Max),
			fmt.Sprintf("%.2f", row.Makespan.Mean/platform.Day),
		})
	}
	return t
}
