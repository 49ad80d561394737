package advisor

import (
	"fmt"
	"math"
)

// This file holds the decision contract between a checkpointing policy and
// whatever drives it — the simulator replaying a failure trace, or a live
// scheduler feeding real events through a Session. The types historically
// lived in internal/sim; they moved here when the decision loop was
// extracted from the simulator, and internal/sim re-exports them as
// aliases so policy implementations are written against either package
// interchangeably.

// Job describes one checkpointed execution. All durations are in seconds;
// Work is the failure-free execution time W(p) of the job on the enrolled
// units.
type Job struct {
	Work  float64 // W(p): total work to execute
	C     float64 // checkpoint cost C(p)
	R     float64 // recovery cost R(p)
	D     float64 // downtime of a failed unit
	Units int     // number of enrolled failure units
	Start float64 // job release date on the absolute clock (the paper uses 1 year)
}

// Validate reports whether the job parameters are usable.
func (j *Job) Validate() error {
	switch {
	case !(j.Work > 0):
		return fmt.Errorf("advisor: non-positive work %v", j.Work)
	case j.C < 0 || j.R < 0 || j.D < 0:
		return fmt.Errorf("advisor: negative overhead C=%v R=%v D=%v", j.C, j.R, j.D)
	case j.Units <= 0:
		return fmt.Errorf("advisor: non-positive unit count %d", j.Units)
	case j.Start < 0:
		return fmt.Errorf("advisor: negative start %v", j.Start)
	}
	return nil
}

// State is the information available to a checkpointing policy at a
// decision point (after the initial release, a committed chunk, or a
// completed recovery).
type State struct {
	Job       *Job
	Now       float64 // absolute clock
	Remaining float64 // work not yet committed to a checkpoint
	Failures  int     // failures observed so far during this execution

	// LastRenewal[u] is the absolute time at which unit u last began a
	// lifetime: 0 if it never failed, otherwise failure time + D (§2.1: a
	// unit starts a fresh lifetime at the beginning of the recovery
	// period). Policies must treat it as read-only.
	LastRenewal []float64

	// FailedUnits lists the distinct units that have failed at least once,
	// in first-failure order. Units not listed have LastRenewal 0, i.e.
	// their age is simply Now. This lets policies on million-unit
	// platforms build their state in O(#failed) instead of O(#units).
	FailedUnits []int32
}

// Tau returns the time elapsed since unit u's last renewal.
func (s *State) Tau(u int) float64 { return s.Now - s.LastRenewal[u] }

// Policy decides the size of the next chunk to execute before
// checkpointing.
type Policy interface {
	// Name returns the policy's display name.
	Name() string
	// Start is invoked once per execution before the first decision. It
	// returns an error when the policy cannot produce a meaningful
	// schedule for the job (e.g. Liu's frequency function yielding
	// intervals shorter than C, see §5.2.2 footnote 2).
	Start(job *Job) error
	// NextChunk returns the amount of work to attempt before the next
	// checkpoint, in (0, s.Remaining]. The session clamps out-of-range
	// values defensively.
	NextChunk(s *State) float64
}

// FailureObserver is implemented by policies that need to know when a
// failure occurred (e.g. to invalidate a planned chunk sequence). It is
// invoked once per resolved outage, with the post-recovery state.
type FailureObserver interface {
	OnFailure(s *State)
}

// CommitObserver is implemented by policies that track successfully
// committed chunks (e.g. to walk a precomputed DP table).
type CommitObserver interface {
	OnChunkCommitted(s *State, chunk float64)
}

// ChunkState declares how long what a policy's NextChunk advances can
// shape its later decisions. A restore uses it to consult the policy at
// only those recorded decision points that still matter, and the
// service to journal decision points only for policies that need them.
type ChunkState int

const (
	// ChunkStateKept is the declaration of a policy that makes none:
	// NextChunk may advance state that every later decision depends on,
	// so every decision point is journaled and replayed.
	ChunkStateKept ChunkState = iota
	// ChunkStateNone declares that NextChunk keeps no state: a decision
	// depends only on the events applied so far.
	ChunkStateNone
	// ChunkStateUntilFailure declares that what NextChunk advances is
	// lost at the next failure, so only the decision points after the
	// last recovered event shape later decisions.
	ChunkStateUntilFailure
)

// ChunkStateDeclarer is implemented by policies that declare their
// ChunkState.
type ChunkStateDeclarer interface {
	ChunkState() ChunkState
}

// sanitizeChunk clamps a policy decision into (0, remaining]. A NaN chunk
// is a policy bug, not a recoverable condition, and panics (the simulator
// has always treated it that way).
func sanitizeChunk(pol Policy, chunk, remaining, work float64) float64 {
	if math.IsNaN(chunk) {
		panic(fmt.Sprintf("advisor: policy %s returned NaN chunk", pol.Name()))
	}
	minChunk := 1e-9 * work
	if minChunk <= 0 {
		minChunk = 1e-9
	}
	if chunk < minChunk {
		chunk = minChunk
	}
	if chunk > remaining {
		chunk = remaining
	}
	return chunk
}
