// Package advisor turns the paper's checkpointing policies into an
// online, event-driven decision service: the core decision loop of the
// simulator (internal/sim), extracted so an external scheduler — not just
// a trace replay — can consume checkpoint recommendations.
//
// Paper mapping: a Session is one run of the §2 execution model driven
// from outside. Advise answers "how much work should I execute before the
// next checkpoint?" — for DPNextFailure that is one step of Algorithm 2
// (maximize the expected work completed before the next failure,
// re-planned after every failure, with the §3.3 multiprocessor state
// approximation); for DPMakespan one step of Algorithm 1; for the
// periodic heuristics the fixed period. Observe feeds the four §2.1
// transitions back:
//
//   - progress: uncommitted execution (the clock advances; a later
//     failure still loses it);
//   - checkpointed: a chunk and its checkpoint committed (Remaining
//     shrinks, CommitObserver policies advance their walk);
//   - failure: a unit failed (§2.1: it begins a fresh lifetime at failure
//     time + D, kept in State.Renewals for failed units only; the session
//     enters an outage, during which further failures may arrive);
//   - recovered: the checkpoint restore completed (the outage ends and
//     FailureObserver policies re-plan, exactly where the simulator
//     invoked them).
//
// Validation is strict and typed: the clock is monotone (ErrClock),
// progress and commits never exceed the remaining work
// (ErrPastRemaining), recoveries need a pending outage (ErrNotInOutage),
// and malformed events (unknown kind, non-finite values, out-of-range
// units) are rejected with ErrBadEvent — always via *EventError, never a
// panic, and always leaving the session unchanged.
//
// The package also owns the driver contract the simulator and the
// policies share: Job, State, Policy and the FailureObserver /
// CommitObserver callbacks (internal/sim aliases them). sim.Run is itself
// implemented as a client of this package — it builds a Session and
// replays a failure trace into it — which keeps the online API and the
// paper's batch evaluation provably equivalent (the table goldens pin the
// bytes, and the equivalence regression test replays recorded event
// streams through fresh sessions).
//
// An Advisor is the compiled, reusable form: job geometry plus a policy
// factory, sharing planners across the sessions it mints. The HTTP
// service (internal/service) exposes advisors as /v1/sessions.
//
// Advisor.ReplaySession restores a session from its journal: the
// applied events plus "advised" markers at the decision points where
// the policy was consulted. A policy may declare a ChunkState, and the
// replay then consults it only where a consult can still shape later
// decisions. DPNextFailure and Liu declare ChunkStateUntilFailure: a
// failure discards what NextChunk advanced (Algorithm 2 re-plans at
// every failure), so a restore re-plans only since the last recovery
// instead of re-solving every DP the session ever solved. The periodic
// heuristics and DPMakespan declare ChunkStateNone: a restore consults
// them once, right after the last commit or recovery or at the one
// marker that says a progress event came first, and the service
// journals no other marker for them. A policy that declares nothing is
// consulted at every marker. The equivalence suite and
// FuzzReplayMarkers hold ReplaySession to what consulting every marker
// rebuilds.
package advisor
