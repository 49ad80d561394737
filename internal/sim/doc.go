// Package sim implements the event-driven simulator for checkpointed,
// tightly-coupled parallel jobs under processor failures.
//
// The execution model follows §2.1 and §3.1 of the paper: the job executes
// chunks of work on all enrolled units synchronously and checkpoints after
// every chunk (cost C). When any unit fails, the execution since the last
// checkpoint is lost; the failed unit is down for D time units (during
// which further units may fail, extending the outage); once all units are
// simultaneously up the job attempts an uninterrupted recovery of length
// R, restarting the outage resolution whenever a failure strikes
// mid-recovery. Failure dates come from a pre-generated trace and are
// independent of job activity, so competing policies are evaluated on
// identical failure scenarios (§4.1).
//
// Paper mapping:
//
//   - Run executes one policy against one trace and returns the §2.2
//     makespan accounting (the components partition the makespan exactly);
//   - LowerBound is the omniscient bound of §4.1: it knows every failure
//     date, checkpoints exactly C before each failure, loses nothing and
//     skips the final checkpoint;
//   - RunReplicated explores the §8 future-work question of n-way group
//     replication (replication.go);
//   - State carries what a policy may observe at a decision point,
//     including the renewal times that Algorithm 2's §3.3 state
//     approximation consumes, kept beside FailedUnits for the failed
//     units only (Renewals): O(#failed) on million-unit platforms.
//
// Policies plug in through the Policy interface plus the optional
// FailureObserver/CommitObserver callbacks; shared immutable planning
// structures (DP tables, planners) live in repro/internal/policy and are
// safe for concurrent runs of the experiment engine.
//
// The decision loop itself lives in repro/internal/advisor: Run builds an
// advisor.Session around the policy and replays the failure trace into
// it, keeping only the trace walking and the time accounting here (the
// Job/State/Policy types are aliases of the advisor's). RunSession runs
// the same loop over a caller-built session — instrumented or pre-seeded
// (PrereleaseHistory) — which is how the equivalence between the online
// API and the paper's batch evaluation is regression-tested.
//
// Run, LowerBound and RunReplicated take a context.Context and poll it
// every few hundred decision-loop iterations: cancellation or deadline
// expiry aborts the walk promptly with ctx.Err(), and an uncancelled
// context adds no measurable overhead (see BENCH.md).
package sim
