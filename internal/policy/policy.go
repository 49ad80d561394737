package policy

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Periodic checkpoints after every `period` units of work. All the
// closed-form heuristics reduce to a Periodic with a particular period.
type Periodic struct {
	name   string
	period float64
}

// NewPeriodic returns a policy with the given fixed period (work between
// checkpoints).
func NewPeriodic(name string, period float64) *Periodic {
	return &Periodic{name: name, period: period}
}

// Name implements sim.Policy.
func (p *Periodic) Name() string { return p.name }

// Period returns the work executed between checkpoints.
func (p *Periodic) Period() float64 { return p.period }

// Start implements sim.Policy.
func (p *Periodic) Start(job *sim.Job) error {
	if !(p.period > 0) || math.IsInf(p.period, 0) || math.IsNaN(p.period) {
		return fmt.Errorf("policy: %s has invalid period %v", p.name, p.period)
	}
	return nil
}

// NextChunk implements sim.Policy.
func (p *Periodic) NextChunk(s *sim.State) float64 {
	return math.Min(p.period, s.Remaining)
}

// ChunkState implements advisor.ChunkStateDeclarer: the period is fixed,
// so NextChunk keeps no state.
func (p *Periodic) ChunkState() sim.ChunkState { return sim.ChunkStateNone }

// NewYoung returns Young's first-order periodic policy [26]:
// period sqrt(2 * C(p) * MTBF/p), with platformMTBF = MTBF/p.
func NewYoung(c, platformMTBF float64) *Periodic {
	return NewPeriodic("Young", math.Sqrt(2*c*platformMTBF))
}

// NewDalyLow returns Daly's lower-order estimate [8], Young's
// approximation extended with the downtime and recovery overheads:
// period sqrt(2 * C(p) * (MTBF/p + D + R(p))).
func NewDalyLow(c, platformMTBF, d, r float64) *Periodic {
	return NewPeriodic("DalyLow", math.Sqrt(2*c*(platformMTBF+d+r)))
}

// NewDalyHigh returns Daly's higher-order estimate [8]:
//
//	period = sqrt(2CM) [1 + (1/3)sqrt(C/(2M)) + (1/9)(C/(2M))] - C  if C < 2M,
//	period = M                                                      otherwise,
//
// with M the platform MTBF.
func NewDalyHigh(c, platformMTBF float64) *Periodic {
	m := platformMTBF
	var period float64
	if c < 2*m {
		ratio := c / (2 * m)
		period = math.Sqrt(2*c*m)*(1+math.Sqrt(ratio)/3+ratio/9) - c
	} else {
		period = m
	}
	return NewPeriodic("DalyHigh", period)
}
