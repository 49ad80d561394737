package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/advisor"
	"repro/internal/trace"
)

// ctxCheckEvery bounds how many decision-loop iterations run between two
// context polls: often enough that cancellation interrupts even
// million-failure traces promptly, rarely enough that an uncancelled
// context costs nothing measurable per run.
const ctxCheckEvery = 256

// The decision contract — job, policy-visible state, the Policy interface
// and its observer callbacks — lives in internal/advisor since the online
// session API was extracted from this simulator. The aliases keep the
// simulator's historical surface: policies are written against either
// package interchangeably.
type (
	// Job describes one simulation instance. All durations are in seconds
	// of simulated time; Work is the failure-free execution time W(p) of
	// the job on the enrolled units.
	Job = advisor.Job
	// State is the information available to a checkpointing policy at a
	// decision point.
	State = advisor.State
	// Policy decides the size of the next chunk to execute before
	// checkpointing.
	Policy = advisor.Policy
	// FailureObserver is implemented by policies that need to know when a
	// failure occurred.
	FailureObserver = advisor.FailureObserver
	// CommitObserver is implemented by policies that track successfully
	// committed chunks.
	CommitObserver = advisor.CommitObserver
	// ChunkState declares how long what a policy's NextChunk advances can
	// shape its later decisions.
	ChunkState = advisor.ChunkState
)

// The ChunkState declarations (see advisor.ChunkState).
const (
	ChunkStateKept         = advisor.ChunkStateKept
	ChunkStateNone         = advisor.ChunkStateNone
	ChunkStateUntilFailure = advisor.ChunkStateUntilFailure
)

// Result aggregates one simulated run. The time components partition the
// makespan exactly:
//
//	Makespan = WorkTime + CheckpointTime + LostTime + WaitTime + RecoveryTime.
type Result struct {
	Makespan       float64 // completion time minus release time
	WorkTime       float64 // committed work (== Job.Work on success)
	CheckpointTime float64 // successful checkpoints
	LostTime       float64 // computation, checkpointing and recovery time destroyed by failures
	WaitTime       float64 // time spent waiting for downtimes to clear
	RecoveryTime   float64 // successful recoveries
	Failures       int     // failures that struck during the run
	Checkpoints    int     // committed checkpoints
	Recoveries     int     // successful recoveries
	Chunks         int     // committed chunks (== Checkpoints)
	// HorizonExceeded reports that the run consumed the whole failure
	// trace; the tail of the execution was simulated as failure-free.
	HorizonExceeded bool
}

// Run simulates the job under the policy against the failure trace and
// returns the accounting. The trace must cover at least job.Units units.
// The context bounds the simulation: cancellation or deadline expiry stops
// the decision loop promptly and returns ctx.Err(). An uncancelled context
// never changes the result.
//
// Run is a client of the online advisor API: it builds an
// advisor.Session around the policy and replays the trace into it —
// every decision comes from Session.Advise and every commit, failure and
// recovery is fed back through Session.Observe. The simulator owns only
// the trace walking and the time accounting.
func Run(ctx context.Context, job *Job, pol Policy, ts *trace.Set) (Result, error) {
	if err := validateRun(job, ts); err != nil {
		return Result{}, err
	}
	r := newRun(job, ts)
	sess, err := advisor.NewSession(advisor.Config{Job: job, Policy: pol, History: r.history})
	if err != nil {
		var se *advisor.StartError
		if errors.As(err, &se) {
			// The simulator's historical error shape for unschedulable
			// policies.
			return Result{}, fmt.Errorf("sim: policy %s cannot start: %w", se.Policy, se.Err)
		}
		return Result{}, err
	}
	return r.drive(ctx, sess)
}

// RunSession simulates the failure trace against a caller-built advisor
// session: the session supplies every decision and absorbs every event,
// so a pre-seeded or instrumented session (telemetry taps, recorded
// replays) runs under exactly the simulator semantics of Run. The session
// must be fresh and consistent with the trace: its clock must sit at the
// job release adjusted for the trace's pre-release downtime — build it
// with PrereleaseHistory — and nothing may have been observed yet.
func RunSession(ctx context.Context, job *Job, sess *advisor.Session, ts *trace.Set) (Result, error) {
	if err := validateRun(job, ts); err != nil {
		return Result{}, err
	}
	r := newRun(job, ts)
	if sess.Now() != r.now || sess.Remaining() != job.Work || sess.InOutage() {
		return Result{}, fmt.Errorf("sim: session state (now=%v remaining=%v outage=%v) does not match a fresh run of the trace (now=%v remaining=%v)",
			sess.Now(), sess.Remaining(), sess.InOutage(), r.now, job.Work)
	}
	return r.drive(ctx, sess)
}

// PrereleaseHistory extracts the failures that precede the job release
// from the trace, in chronological order — the History a session needs to
// start bit-identically to Run on the same trace.
func PrereleaseHistory(job *Job, ts *trace.Set) []advisor.PastFailure {
	r := newRun(job, ts)
	return r.history
}

// validateRun checks the (job, trace) pair like Run always has.
func validateRun(job *Job, ts *trace.Set) error {
	if err := job.Validate(); err != nil {
		return err
	}
	if len(ts.Units) < job.Units {
		return fmt.Errorf("sim: trace has %d units, job needs %d", len(ts.Units), job.Units)
	}
	return nil
}

// drive is the simulation loop: decisions from the session, failures from
// the trace, accounting in the run.
func (r *run) drive(ctx context.Context, sess *advisor.Session) (Result, error) {
	job := r.job
	for iter := 0; ; iter++ {
		if iter%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		d, err := sess.Advise()
		if err != nil {
			return Result{}, err
		}
		if d.Done {
			break
		}
		chunk := d.Chunk
		end := r.now + chunk + job.C
		ev, ok := r.nextFailureBefore(end)
		if !ok {
			// Chunk and checkpoint commit.
			r.res.WorkTime += chunk
			r.res.CheckpointTime += job.C
			r.res.Checkpoints++
			r.res.Chunks++
			r.now = end
			if err := sess.Observe(advisor.Event{Kind: advisor.EventCheckpointed, Time: end, Work: chunk}); err != nil {
				return Result{}, err
			}
			continue
		}
		// Failure strikes during the chunk or its checkpoint.
		r.res.LostTime += ev.Time - r.now
		r.now = ev.Time
		if err := r.recordFailure(sess, ev); err != nil {
			return Result{}, err
		}
		if err := r.settleOutage(sess); err != nil {
			return Result{}, err
		}
		if err := sess.Observe(advisor.Event{Kind: advisor.EventRecovered, Time: r.now}); err != nil {
			return Result{}, err
		}
	}
	r.res.Makespan = r.now - job.Start
	r.res.HorizonExceeded = r.now > r.ts.Horizon
	return r.res, nil
}

// run carries the trace-walking state shared by Run and LowerBound: the
// failure cursor, the downtime barrier and the time accounting. The
// policy-visible state (renewal ages, failure counts) lives in the
// advisor session Run drives; LowerBound needs none of it.
type run struct {
	job    *Job
	ts     *trace.Set
	events []trace.Event
	evIdx  int // next unprocessed event
	// barrier is the earliest time at which all units are simultaneously
	// up: the max over all processed failures of failureTime + D. It is
	// monotone, so a single scalar suffices even for millions of units.
	barrier   float64
	now       float64
	remaining float64 // tracked for LowerBound's walk; Run follows the session
	history   []advisor.PastFailure
	res       Result
}

func newRun(job *Job, ts *trace.Set) *run {
	r := &run{
		job:       job,
		ts:        ts,
		events:    ts.MergedEvents(job.Units),
		now:       job.Start,
		remaining: job.Work,
	}
	// Process failures that occurred before the release date: they set the
	// units' renewal times (via the session history) and possibly an
	// initial outage barrier.
	for r.evIdx < len(r.events) && r.events[r.evIdx].Time < job.Start {
		ev := r.events[r.evIdx]
		r.evIdx++
		r.markFailed(ev)
		r.history = append(r.history, advisor.PastFailure{Unit: int(ev.Unit), Time: ev.Time})
	}
	// If a unit is still down at release, wait for the platform.
	if r.barrier > r.now {
		r.res.WaitTime += r.barrier - r.now
		r.now = r.barrier
	}
	return r
}

// markFailed advances the downtime barrier for a failure event.
func (r *run) markFailed(ev trace.Event) {
	if up := ev.Time + r.job.D; up > r.barrier {
		r.barrier = up
	}
}

// recordFailure counts and books an in-run failure, forwarding it to the
// session when one is attached (Run; LowerBound passes nil).
func (r *run) recordFailure(sess *advisor.Session, ev trace.Event) error {
	r.res.Failures++
	r.markFailed(ev)
	r.evIdx++ // the event is consumed
	if sess != nil {
		return sess.Observe(advisor.Event{Kind: advisor.EventFailure, Time: ev.Time, Unit: int(ev.Unit)})
	}
	return nil
}

// nextFailureBefore returns the earliest unconsumed failure event strictly
// before t, without consuming it.
func (r *run) nextFailureBefore(t float64) (trace.Event, bool) {
	if r.evIdx >= len(r.events) {
		return trace.Event{}, false
	}
	ev := r.events[r.evIdx]
	if ev.Time < t {
		return ev, true
	}
	return trace.Event{}, false
}

// settleOutage resolves a failure: wait until every unit is up (failures
// during the wait extend it), then attempt an uninterrupted recovery of
// length R, restarting the whole resolution if a failure strikes
// mid-recovery. On return the platform has a freshly restored checkpoint.
func (r *run) settleOutage(sess *advisor.Session) error {
	for {
		// Wait for the downtime barrier, absorbing failures that land
		// inside the waiting interval.
		for {
			ev, ok := r.nextFailureBefore(r.barrier)
			if !ok {
				break
			}
			r.res.WaitTime += ev.Time - r.now
			r.now = ev.Time
			if err := r.recordFailure(sess, ev); err != nil {
				return err
			}
		}
		if r.barrier > r.now {
			r.res.WaitTime += r.barrier - r.now
			r.now = r.barrier
		}
		// Attempt the recovery.
		recEnd := r.now + r.job.R
		ev, ok := r.nextFailureBefore(recEnd)
		if !ok {
			r.res.RecoveryTime += r.job.R
			r.res.Recoveries++
			r.now = recEnd
			return nil
		}
		// Recovery interrupted; the partial recovery is lost time.
		r.res.LostTime += ev.Time - r.now
		r.now = ev.Time
		if err := r.recordFailure(sess, ev); err != nil {
			return err
		}
	}
}

// LowerBound simulates the omniscient policy of §4.1: it knows every
// failure date in advance, computes continuously, checkpoints exactly C
// before each failure (losing nothing), and skips the final checkpoint.
// If the gap to the next failure is shorter than C, no work fits and the
// bound idles until the failure. Its makespan lower-bounds every policy on
// the same trace. The context cancels the walk like Run's.
func LowerBound(ctx context.Context, job *Job, ts *trace.Set) (Result, error) {
	if err := validateRun(job, ts); err != nil {
		return Result{}, err
	}
	r := newRun(job, ts)
	for iter := 0; r.remaining > 1e-9*job.Work; iter++ {
		if iter%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		var window float64
		ev, ok := trace.Event{}, false
		if r.evIdx < len(r.events) {
			ev, ok = r.events[r.evIdx], true
		}
		if ok {
			window = ev.Time - r.now
		} else {
			window = math.Inf(1)
		}
		if r.remaining <= window {
			// Finish before the next failure; no final checkpoint.
			r.res.WorkTime += r.remaining
			r.now += r.remaining
			r.remaining = 0
			break
		}
		// Work as much as the window allows, checkpoint just in time.
		useful := window - job.C
		if useful > 0 {
			if useful > r.remaining {
				useful = r.remaining
			}
			r.res.WorkTime += useful
			r.res.CheckpointTime += job.C
			r.res.Checkpoints++
			r.res.Chunks++
			r.remaining -= useful
			// Any slack between checkpoint end and the failure is waiting.
			r.res.WaitTime += window - useful - job.C
		} else {
			// The window cannot even fit a checkpoint: idle through it.
			r.res.WaitTime += window
		}
		r.now = ev.Time
		if err := r.recordFailure(nil, ev); err != nil {
			return Result{}, err
		}
		r.settleOutage(nil) //nolint:errcheck // no session: cannot fail
	}
	r.remaining = 0
	r.res.Makespan = r.now - job.Start
	r.res.HorizonExceeded = r.now > ts.Horizon
	return r.res, nil
}

// AccountingError returns the discrepancy between the makespan and the sum
// of its components; it should be ~0 for every run and is asserted by the
// test suite.
func (res Result) AccountingError() float64 {
	sum := res.WorkTime + res.CheckpointTime + res.LostTime + res.WaitTime + res.RecoveryTime
	return res.Makespan - sum
}
