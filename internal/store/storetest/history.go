package storetest

import (
	"context"
	"math"

	"repro/internal/advisor"
	"repro/internal/spec"
	"repro/internal/store"
)

// History is a 282-record session history shaped like one of the
// recover-cluster benchmark's: a DPNextFailure spec on the petascale
// preset, an opening decision point, then 40 batches of five progress
// heartbeats and a checkpoint (or, in 3 of every 20 batches, four
// heartbeats, a failure and its recovery), each closed by a decision
// point. Times carry full-precision digits, as simulated ones do.
func History() (*spec.SessionSpec, []advisor.ReplayStep) {
	ss := &spec.SessionSpec{
		Name: "replay-history",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "petascale"},
			P:        4096,
			Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
			Start:    365 * 86400,
		},
		Policy: spec.PolicySpec{Kind: "dpnextfailure", Quanta: 60},
	}
	steps := []advisor.ReplayStep{{Advised: true}}
	now, work := 365*86400.0, 0.0
	event := func(ev advisor.Event) { steps = append(steps, advisor.ReplayStep{Event: ev}) }
	progress := func(i int) {
		dt := 300 + float64(i)*math.Pi
		now += dt
		work += dt * 0.9876543210123
		event(advisor.Event{Kind: advisor.EventProgress, Time: now, Work: work})
	}
	for b := range 40 {
		if k := b % 20; k == 3 || k == 9 || k == 15 {
			for i := range 4 {
				progress(b*7 + i)
			}
			now += 17.25 * math.E
			event(advisor.Event{Kind: advisor.EventFailure, Time: now, Unit: 37 * (b + 1)})
			now += 660
			event(advisor.Event{Kind: advisor.EventRecovered, Time: now})
		} else {
			for i := range 5 {
				progress(b*7 + i)
			}
			now += 600
			event(advisor.Event{Kind: advisor.EventCheckpointed, Time: now, Work: work})
		}
		work = 0
		steps = append(steps, advisor.ReplayStep{Advised: true})
	}
	return ss, steps
}

// WriteHistory records a whole history as session id's log.
func WriteHistory(ctx context.Context, log store.SessionLog, id string, ss *spec.SessionSpec, steps []advisor.ReplayStep) error {
	if err := log.AppendCreated(ctx, id, ss); err != nil {
		return err
	}
	for _, s := range steps {
		var err error
		if s.Advised {
			err = log.AppendAdvised(ctx, id)
		} else {
			err = log.AppendEvent(ctx, id, s.Event)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
