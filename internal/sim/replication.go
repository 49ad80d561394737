package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// This file implements the §8 future-work direction the paper sketches:
// "replicating the execution of a given job on say, both halves of the
// platform, i.e., with ptotal/2 processors each ... by synchronizing the
// execution after each checkpoint."
//
// Model: the platform's units are split into `replicas` disjoint groups.
// Every group executes the same chunk from the same shared checkpoint, and
// the chunk commits as soon as the FIRST group completes it; the laggards
// abandon their attempt and all groups resume from the new checkpoint. A
// group that fails mid-chunk settles its outage (downtime barrier +
// interruptible recovery) and retries, so a chunk commits as long as some
// group eventually finishes it.
//
// Simplification (documented): synchronizing the non-winning groups onto
// the freshly committed checkpoint is free — the checkpoint broadcast is
// folded into C. Failure dates remain policy-independent, so replicated
// and plain executions are comparable on identical traces.

// RunReplicated simulates the job under `replicas`-way replication.
// job.Units is the per-replica unit count; the run consumes units
// [0, job.Units*replicas) of the trace. The policy observes the state of
// the group that committed the previous chunk.
func RunReplicated(ctx context.Context, job *Job, pol Policy, ts *trace.Set, replicas int) (Result, error) {
	if replicas < 1 {
		return Result{}, fmt.Errorf("sim: replicas must be >= 1, got %d", replicas)
	}
	if replicas == 1 {
		return Run(ctx, job, pol, ts)
	}
	if err := job.Validate(); err != nil {
		return Result{}, err
	}
	totalUnits := job.Units * replicas
	if len(ts.Units) < totalUnits {
		return Result{}, fmt.Errorf("sim: trace has %d units, %d-way replication of %d units needs %d",
			len(ts.Units), replicas, job.Units, totalUnits)
	}
	if err := pol.Start(job); err != nil {
		return Result{}, fmt.Errorf("sim: policy %s cannot start: %w", pol.Name(), err)
	}

	groups := make([]*replicaGroup, replicas)
	for g := 0; g < replicas; g++ {
		groups[g] = newReplicaGroup(job, ts, g*job.Units)
	}
	co, _ := pol.(CommitObserver)

	res := Result{}
	remaining := job.Work
	workEps := 1e-9 * job.Work
	now := job.Start
	lead := 0

	for iter := 0; remaining > workEps; iter++ {
		if iter%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		st := groups[lead].stateAt(now, remaining, res.Failures)
		chunk := pol.NextChunk(st)
		chunk = sanitizeChunk(pol, chunk, remaining, job.Work)

		// Determine each group's commit time for this chunk; pick the
		// earliest. Accounting (lost/wait/recovery and the winner's
		// failure count) follows the winning group's timeline.
		bestEnd := math.Inf(1)
		bestG := -1
		var bestAcct chunkAccount
		for g := 0; g < replicas; g++ {
			end, acct := groups[g].completeChunkFrom(now, chunk)
			if end < bestEnd {
				bestEnd, bestG, bestAcct = end, g, acct
			}
		}
		if bestG < 0 || math.IsInf(bestEnd, 1) {
			return Result{}, fmt.Errorf("sim: no replica could complete a chunk")
		}
		res.LostTime += bestAcct.lost
		res.WaitTime += bestAcct.wait
		res.RecoveryTime += bestAcct.recovery
		res.Failures += bestAcct.failures
		res.Recoveries += bestAcct.recoveries
		res.CheckpointTime += job.C
		res.Checkpoints++
		res.Chunks++
		remaining -= chunk
		now = bestEnd
		// Advance every group's renewal bookkeeping to the commit instant.
		for g := 0; g < replicas; g++ {
			groups[g].advanceTo(now)
		}
		lead = bestG
		if co != nil {
			co.OnChunkCommitted(groups[lead].stateAt(now, remaining, res.Failures), chunk)
		}
	}
	res.WorkTime = job.Work
	res.Makespan = now - job.Start
	res.HorizonExceeded = now > ts.Horizon
	return res, nil
}

// chunkAccount is the time breakdown of one group's winning chunk attempt.
type chunkAccount struct {
	lost, wait, recovery float64
	failures, recoveries int
}

// replicaGroup tracks one replica's failure bookkeeping.
type replicaGroup struct {
	job     *Job
	events  []trace.Event
	evIdx   int
	barrier float64
	st      State // renewals of the failed local units; stateAt sets the rest
}

func newReplicaGroup(job *Job, ts *trace.Set, off int) *replicaGroup {
	// Localize the group's events (unit ids relative to the group).
	sub := &trace.Set{Horizon: ts.Horizon, Units: ts.Units[off : off+job.Units]}
	events := sub.MergedEvents(job.Units)
	// The failures before the release size the renewal bookkeeping.
	n := sort.Search(len(events), func(i int) bool { return events[i].Time >= job.Start })
	n = min(n, job.Units)
	g := &replicaGroup{
		job:    job,
		events: events,
		st:     State{Job: job, FailedUnits: make([]int32, 0, n), Renewals: make([]float64, 0, n)},
	}
	g.advanceTo(job.Start)
	return g
}

// advanceTo consumes all failures strictly before t, updating renewals and
// the downtime barrier (no accounting: abandoned attempts are redundant
// hardware time, not wall-clock).
func (g *replicaGroup) advanceTo(t float64) {
	for g.evIdx < len(g.events) && g.events[g.evIdx].Time < t {
		ev := g.events[g.evIdx]
		g.evIdx++
		g.mark(ev)
	}
}

func (g *replicaGroup) mark(ev trace.Event) {
	up := ev.Time + g.job.D
	g.st.Renew(ev.Unit, up)
	if up > g.barrier {
		g.barrier = up
	}
}

// stateAt returns the group's policy-visible state at now.
func (g *replicaGroup) stateAt(now, remaining float64, failures int) *State {
	g.st.Now, g.st.Remaining, g.st.Failures = now, remaining, failures
	return &g.st
}

// completeChunkFrom computes, WITHOUT mutating the group, the absolute
// time at which the group commits a chunk started from the shared
// checkpoint at `start`, plus the time breakdown of that attempt. Returns
// +Inf if the group's trace cannot accommodate it (never happens with
// finite traces: once events are exhausted execution is failure-free).
func (g *replicaGroup) completeChunkFrom(start, chunk float64) (float64, chunkAccount) {
	var acct chunkAccount
	now := start
	idx := g.evIdx
	barrier := g.barrier
	consume := func() trace.Event {
		ev := g.events[idx]
		idx++
		if up := ev.Time + g.job.D; up > barrier {
			barrier = up
		}
		acct.failures++
		return ev
	}
	// Wait out any outage in progress, absorbing failures that extend it.
	waitBarrier := func() {
		for idx < len(g.events) && g.events[idx].Time < barrier {
			ev := g.events[idx]
			acct.wait += ev.Time - now
			now = ev.Time
			consume()
		}
		if barrier > now {
			acct.wait += barrier - now
			now = barrier
		}
	}
	waitBarrier()
	for {
		end := now + chunk + g.job.C
		if idx >= len(g.events) || g.events[idx].Time >= end {
			return end, acct
		}
		// Failure mid-attempt.
		ev := g.events[idx]
		acct.lost += ev.Time - now
		now = ev.Time
		consume()
		// Settle: barrier wait, then interruptible recovery.
		for {
			waitBarrier()
			recEnd := now + g.job.R
			if idx >= len(g.events) || g.events[idx].Time >= recEnd {
				acct.recovery += g.job.R
				acct.recoveries++
				now = recEnd
				break
			}
			ev := g.events[idx]
			acct.lost += ev.Time - now
			now = ev.Time
			consume()
		}
	}
}

// sanitizeChunk mirrors run.clampChunk for the replicated path.
func sanitizeChunk(pol Policy, chunk, remaining, work float64) float64 {
	if math.IsNaN(chunk) {
		panic(fmt.Sprintf("sim: policy %s returned NaN chunk", pol.Name()))
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
