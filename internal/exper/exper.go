package exper

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/spec"
)

// Params controls an experiment run.
type Params struct {
	// Full switches to paper-scale parameters (600 traces, full grids).
	Full bool
	// Traces overrides the trace count (0 keeps the mode default).
	Traces int
	// Seed drives all randomness.
	Seed uint64
	// CSV additionally emits the table as CSV after the aligned text.
	CSV bool
	// Quanta overrides the dynamic-programming resolutions (0 keeps the
	// mode defaults). Lower values trade fidelity for speed.
	Quanta int
	// PeriodLBTraces overrides the PeriodLB search trace count.
	PeriodLBTraces int
	// Engine executes the experiment's cells: its worker pool bounds
	// concurrency and its cache shares DP tables and planners across
	// cells. Each run is one scope of it (engine.Engine.Scope), so its
	// cells also share trace sets and post-failure grids — across runs
	// too when Engine already is a scope. Nil means engine.Default(). The
	// worker count never changes experiment output.
	Engine *engine.Engine
}

// engine returns the configured engine, defaulting to the shared one.
func (p Params) engine() *engine.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return engine.Default()
}

func (p Params) traces(quick, full int) int {
	if p.Traces > 0 {
		return p.Traces
	}
	if p.Full {
		return full
	}
	return quick
}

// quantaOr returns the DP resolution: the explicit override, or the mode
// default.
func (p Params) quantaOr(quick, full int) int {
	if p.Quanta > 0 {
		return p.Quanta
	}
	return p.pick(quick, full)
}

func (p Params) pick(quick, full int) int {
	if p.Full {
		return full
	}
	return quick
}

func (p Params) seed() uint64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 0x5eed
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, w io.Writer, p Params) error
	// Spec, when non-nil, returns the declarative form of the experiment
	// at the given parameters: running it through RunSpec produces
	// byte-identical output to Run. The cmd tools print it with
	// -dump-spec; experiments with bespoke renderings (most figures)
	// leave it nil.
	Spec func(p Params) (*spec.ExperimentSpec, error)
}

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exper: duplicate experiment id %q", e.ID))
	}
	run := e.Run
	e.Run = func(ctx context.Context, w io.Writer, p Params) error {
		p.Engine = p.engine().Scope()
		return run(ctx, w, p)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// emit renders a table as text (and CSV when requested).
func emit(w io.Writer, p Params, t *harness.Table) error {
	if err := t.WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if p.CSV {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
