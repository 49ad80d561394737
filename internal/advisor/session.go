package advisor

import (
	"errors"
	"fmt"
	"math"
)

// EventKind names the observations a driver can feed a Session. The
// values are the wire names used by the HTTP session API.
type EventKind string

const (
	// EventProgress reports uncommitted execution: the clock advances and
	// the cumulative attempted work is validated against the remaining
	// work, but nothing is committed (a failure still loses it).
	EventProgress EventKind = "progress"
	// EventCheckpointed reports a committed chunk: Work units of work and
	// its checkpoint completed at Time.
	EventCheckpointed EventKind = "checkpointed"
	// EventFailure reports that Unit failed at Time. The session enters an
	// outage; further failures may follow before the recovery completes.
	EventFailure EventKind = "failure"
	// EventRecovered reports that the platform restored the last
	// checkpoint at Time, ending the outage.
	EventRecovered EventKind = "recovered"
)

// Event is one observation fed to a Session. Time is on the session's
// absolute clock and must never move backwards.
type Event struct {
	Kind EventKind `json:"kind"`
	Time float64   `json:"time"`
	// Work is the executed work for progress/checkpointed events.
	Work float64 `json:"work,omitempty"`
	// Unit is the failed unit index for failure events.
	Unit int `json:"unit,omitempty"`
}

// Decision is one checkpoint recommendation: execute Chunk units of work,
// then checkpoint (cost CheckpointCost). The remaining fields carry the
// rationale — which policy decided, from what state, and the context the
// policy can cheaply attach (the fixed period of periodic heuristics, the
// expected makespan of the DPMakespan program).
type Decision struct {
	// Policy is the deciding policy's display name.
	Policy string `json:"policy"`
	// Done reports that all work is committed; no further decisions will
	// be issued (Chunk is 0).
	Done bool `json:"done,omitempty"`
	// Chunk is the work to execute before the next checkpoint, clamped
	// into (0, Remaining].
	Chunk float64 `json:"chunk,omitempty"`
	// CheckpointCost is the checkpoint cost C(p) the schedule assumes.
	CheckpointCost float64 `json:"checkpointCost,omitempty"`
	// Now, Remaining and Failures snapshot the state the decision was
	// issued from.
	Now       float64 `json:"now"`
	Remaining float64 `json:"remaining"`
	Failures  int     `json:"failures,omitempty"`
	// Period is the fixed checkpointing period for periodic policies.
	Period float64 `json:"period,omitempty"`
	// ExpectedMakespan is the policy's expected makespan for the whole
	// job, for policies that solve one (DPMakespan's Algorithm 1 value).
	ExpectedMakespan float64 `json:"expectedMakespan,omitempty"`
}

// Typed validation errors. Every Observe/Advise failure wraps one of
// these (inside an *EventError for event rejections), so drivers can
// errors.Is-classify without string matching.
var (
	// ErrDone reports an event fed to a session whose work is complete.
	ErrDone = errors.New("advisor: session is complete")
	// ErrOutage reports an operation that needs an up platform (advising,
	// progress, checkpoints) while a recovery is pending.
	ErrOutage = errors.New("advisor: platform is in an outage; expected failure or recovered event")
	// ErrNotInOutage reports a recovered event without a preceding failure.
	ErrNotInOutage = errors.New("advisor: recovered event without a pending outage")
	// ErrClock reports an event whose time precedes the session clock.
	ErrClock = errors.New("advisor: event time precedes the session clock")
	// ErrBadEvent reports a structurally invalid event (unknown kind,
	// non-finite time or work, out-of-range unit).
	ErrBadEvent = errors.New("advisor: malformed event")
	// ErrPastRemaining reports progress or a commit exceeding the
	// remaining work.
	ErrPastRemaining = errors.New("advisor: work exceeds the remaining work")
)

// EventError wraps a rejected event with the typed cause and a
// description of the violated constraint. The session state is unchanged
// by a rejected event.
type EventError struct {
	Event  Event
	Err    error
	Detail string
}

func (e *EventError) Error() string {
	return fmt.Sprintf("%v (%s event at t=%v: %s)", e.Err, e.Event.Kind, e.Event.Time, e.Detail)
}

func (e *EventError) Unwrap() error { return e.Err }

// StartError reports a policy that cannot produce a schedule for the
// session's job.
type StartError struct {
	Policy string
	Err    error
}

func (e *StartError) Error() string {
	return fmt.Sprintf("advisor: policy %s cannot start: %v", e.Policy, e.Err)
}

func (e *StartError) Unwrap() error { return e.Err }

// PastFailure seeds a unit's renewal history: a failure that occurred
// before the session start. It adjusts the unit's age bookkeeping (and,
// when the downtime outlasts the start date, the session clock) without
// counting as a session failure.
type PastFailure struct {
	Unit int     `json:"unit"`
	Time float64 `json:"time"`
}

// Config assembles a Session.
type Config struct {
	// Job is the execution the session advises. It is copied; later
	// mutations of the caller's struct do not affect the session.
	Job *Job
	// Policy decides the chunks. The session owns it for its lifetime: it
	// calls Start once and the observer callbacks as events arrive, so the
	// instance must not be shared with a concurrent session.
	Policy Policy
	// History lists failures that occurred before Job.Start, in
	// chronological order (they seed unit ages exactly like the
	// simulator's pre-release trace processing).
	History []PastFailure
	// OnDecision and OnEvent, when non-nil, observe every freshly
	// computed decision and every applied event (telemetry, recording).
	OnDecision func(Decision)
	OnEvent    func(Event)
}

// Session is one stateful advisory conversation: the driver alternates
// Advise (what should I run next?) with Observe (here is what happened).
// A decision stands until an event that changes the schedule state — a
// commit or a recovery — so repeated Advise calls between events return
// the identical decision without consulting the policy again.
//
// A Session is not safe for concurrent use; callers serialize access
// (the HTTP service locks per session).
type Session struct {
	job  Job
	pol  Policy
	fo   FailureObserver
	co   CommitObserver
	tapD func(Decision)
	tapE func(Event)
	// chunkState is the policy's declaration (ChunkStateKept when it
	// makes none); it decides which decision points a replay consults.
	chunkState ChunkState
	// progressed records a progress event since the last commit or
	// recovery: a consult after it is not where a replay of a
	// ChunkStateNone policy would place it unmarked.
	progressed bool

	state State
	// workEps is the completion threshold: remaining work below it is
	// floating-point residue, matching the simulator's convention.
	workEps float64
	// seenFailed[u] records that unit u is already in FailedUnits. The
	// trace replay historically used LastRenewal[u] == 0 as the sentinel,
	// which misfires when an event-fed failure renews at exactly 0 (D=0,
	// Time=-D): the unit would be appended twice and skew the §3.3 age
	// groups. An explicit bit per unit is exact for arbitrary events.
	seenFailed []bool
	// attempted accumulates uncommitted progress since the last decision
	// point, for the no-progress-past-Remaining validation.
	attempted float64
	inOutage  bool

	hasDecision bool
	decision    Decision
}

// NewSession validates the configuration, starts the policy and returns a
// session positioned at the job release (or at the end of any downtime
// the history left pending).
func NewSession(cfg Config) (*Session, error) {
	if cfg.Job == nil {
		return nil, errors.New("advisor: config needs a job")
	}
	if cfg.Policy == nil {
		return nil, errors.New("advisor: config needs a policy")
	}
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		job:     *cfg.Job,
		pol:     cfg.Policy,
		tapD:    cfg.OnDecision,
		tapE:    cfg.OnEvent,
		workEps: 1e-9 * cfg.Job.Work,
	}
	s.fo, _ = cfg.Policy.(FailureObserver)
	s.co, _ = cfg.Policy.(CommitObserver)
	if d, ok := cfg.Policy.(ChunkStateDeclarer); ok {
		s.chunkState = d.ChunkState()
	}
	if err := s.pol.Start(&s.job); err != nil {
		return nil, &StartError{Policy: s.pol.Name(), Err: err}
	}
	s.state = State{
		Job:         &s.job,
		Now:         s.job.Start,
		Remaining:   s.job.Work,
		LastRenewal: make([]float64, s.job.Units),
	}
	s.seenFailed = make([]bool, s.job.Units)
	// Replay the pre-start failure history: it sets renewal times and may
	// leave a downtime barrier past the release date, exactly like the
	// simulator's pre-release trace processing.
	var barrier float64
	last := math.Inf(-1)
	for _, h := range cfg.History {
		switch {
		case h.Unit < 0 || h.Unit >= s.job.Units:
			return nil, fmt.Errorf("advisor: history failure unit %d out of range [0,%d)", h.Unit, s.job.Units)
		case math.IsNaN(h.Time) || math.IsInf(h.Time, 0):
			return nil, fmt.Errorf("advisor: history failure time %v is not finite", h.Time)
		case h.Time >= s.job.Start:
			return nil, fmt.Errorf("advisor: history failure at %v is not before the start %v", h.Time, s.job.Start)
		case h.Time < last:
			return nil, fmt.Errorf("advisor: history is not in chronological order (%v after %v)", h.Time, last)
		}
		last = h.Time
		s.markFailed(h.Unit, h.Time)
		if up := h.Time + s.job.D; up > barrier {
			barrier = up
		}
	}
	if barrier > s.state.Now {
		s.state.Now = barrier
	}
	return s, nil
}

// markFailed books a failure's renewal time for unit u at time t.
func (s *Session) markFailed(u int, t float64) {
	if !s.seenFailed[u] {
		s.seenFailed[u] = true
		s.state.FailedUnits = append(s.state.FailedUnits, int32(u))
	}
	s.state.LastRenewal[u] = t + s.job.D
}

// Advise returns the current recommendation: the chunk of work to execute
// before the next checkpoint, or Done when all work is committed. The
// decision is computed once per decision point and then cached: calling
// Advise again before a checkpointed/recovered event returns the same
// decision without consulting the policy.
func (s *Session) Advise() (Decision, error) {
	if s.inOutage {
		return Decision{}, ErrOutage
	}
	if s.hasDecision {
		return s.decision, nil
	}
	d := Decision{
		Policy:    s.pol.Name(),
		Now:       s.state.Now,
		Remaining: s.state.Remaining,
		Failures:  s.state.Failures,
	}
	if s.state.Remaining <= s.workEps {
		// Absorb the floating-point residue, as the simulator does when
		// its decision loop exits.
		s.state.Remaining = 0
		d.Done = true
		d.Remaining = 0
	} else {
		chunk := s.pol.NextChunk(&s.state)
		chunk = sanitizeChunk(s.pol, chunk, s.state.Remaining, s.job.Work)
		d.Chunk = chunk
		d.CheckpointCost = s.job.C
		if p, ok := s.pol.(interface{ Period() float64 }); ok {
			d.Period = p.Period()
		}
		if m, ok := s.pol.(interface{ ExpectedMakespan() float64 }); ok {
			d.ExpectedMakespan = m.ExpectedMakespan()
		}
	}
	s.decision = d
	s.hasDecision = true
	if s.tapD != nil {
		s.tapD(d)
	}
	return d, nil
}

// Observe validates and applies one event. A rejected event returns a
// typed *EventError and leaves the session unchanged.
func (s *Session) Observe(ev Event) error {
	reject := func(cause error, detail string) error {
		return &EventError{Event: ev, Err: cause, Detail: detail}
	}
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
		return reject(ErrBadEvent, "time is not finite")
	}
	if ev.Time < s.state.Now {
		return reject(ErrClock, fmt.Sprintf("session clock is at %v", s.state.Now))
	}
	if s.state.Remaining <= s.workEps && !s.inOutage {
		return reject(ErrDone, "all work is committed")
	}
	switch ev.Kind {
	case EventProgress:
		if s.inOutage {
			return reject(ErrOutage, "progress cannot happen while a recovery is pending")
		}
		if math.IsNaN(ev.Work) || math.IsInf(ev.Work, 0) || ev.Work < 0 {
			return reject(ErrBadEvent, fmt.Sprintf("progress work %v must be finite and >= 0", ev.Work))
		}
		if s.attempted+ev.Work > s.state.Remaining {
			return reject(ErrPastRemaining,
				fmt.Sprintf("cumulative uncommitted progress %v past remaining %v", s.attempted+ev.Work, s.state.Remaining))
		}
		s.attempted += ev.Work
		s.state.Now = ev.Time
		s.progressed = true

	case EventCheckpointed:
		if s.inOutage {
			return reject(ErrOutage, "a checkpoint cannot commit while a recovery is pending")
		}
		if math.IsNaN(ev.Work) || math.IsInf(ev.Work, 0) || ev.Work <= 0 {
			return reject(ErrBadEvent, fmt.Sprintf("committed work %v must be finite and > 0", ev.Work))
		}
		if ev.Work > s.state.Remaining {
			return reject(ErrPastRemaining,
				fmt.Sprintf("commit of %v past remaining %v", ev.Work, s.state.Remaining))
		}
		s.state.Remaining -= ev.Work
		s.state.Now = ev.Time
		s.attempted = 0
		s.hasDecision = false
		s.progressed = false
		if s.co != nil {
			s.co.OnChunkCommitted(&s.state, ev.Work)
		}

	case EventFailure:
		if ev.Unit < 0 || ev.Unit >= s.job.Units {
			return reject(ErrBadEvent, fmt.Sprintf("unit %d out of range [0,%d)", ev.Unit, s.job.Units))
		}
		s.state.Now = ev.Time
		s.state.Failures++
		s.markFailed(ev.Unit, ev.Time)
		s.attempted = 0
		s.inOutage = true
		s.hasDecision = false

	case EventRecovered:
		if !s.inOutage {
			return reject(ErrNotInOutage, "no failure is pending recovery")
		}
		s.state.Now = ev.Time
		s.inOutage = false
		s.progressed = false
		if s.fo != nil {
			s.fo.OnFailure(&s.state)
		}

	default:
		return reject(ErrBadEvent, fmt.Sprintf("unknown event kind %q", ev.Kind))
	}
	if s.tapE != nil {
		s.tapE(ev)
	}
	return nil
}

// Now returns the session's absolute clock.
func (s *Session) Now() float64 { return s.state.Now }

// Remaining returns the work not yet committed to a checkpoint.
func (s *Session) Remaining() float64 { return s.state.Remaining }

// Failures returns the failures observed since the session start.
func (s *Session) Failures() int { return s.state.Failures }

// InOutage reports whether a failure is awaiting its recovered event.
func (s *Session) InOutage() bool { return s.inOutage }

// Done reports whether all work is committed.
func (s *Session) Done() bool { return s.state.Remaining <= s.workEps }

// PolicyName returns the deciding policy's display name.
func (s *Session) PolicyName() string { return s.pol.Name() }
