// Package policy implements the checkpointing policies compared in the
// paper (§4.1): the previously published periodic heuristics, the
// non-periodic Liu policy, the paper's analytically optimal OptExp, and
// its two dynamic-programming contributions DPMakespan and DPNextFailure.
//
// Paper mapping:
//
//   - Young [26] and Daly [8] low/high order: first-order periodic
//     heuristics, period ~ sqrt(2*C*MTBF/p) (policy.go);
//   - OptExp: Theorem 1 / Proposition 5, the provably optimal periodic
//     policy under Exponential failures, chunk count via Lambert W
//     (optexp.go);
//   - Bouguerra et al. [4]: periodic policy reconstruction under the
//     all-processor rejuvenation assumption (bouguerra.go);
//   - Liu et al. [16]: the non-periodic frequency-function policy
//     reconstruction (liu.go);
//   - DPMakespan: Algorithm 1 (§2.3, §3.2) — the dynamic program
//     minimizing expected makespan, solved once into an immutable
//     DPMakespanTable and walked by per-run DPMakespan instances
//     (dpmakespan.go);
//   - DPNextFailure: Algorithm 2 (§2.4) with the §3.3 multiprocessor state
//     approximation — the immutable DPNextFailurePlanner holds the
//     configuration and the memoized pristine-state plan, per-run
//     DPNextFailure instances carry only the chunk-plan cursor
//     (dpnextfailure.go);
//   - AggregateRenewal: the §3.2 macro-processor law (minimum of p iid
//     lifetimes) used by the rejuvenation-assuming policies.
//
// The split between immutable planned tables (DPMakespanTable,
// DPNextFailurePlanner — built once per scenario, shared read-only) and
// per-run mutable execution state (DPMakespan, DPNextFailure — cheap,
// fresh per simulated trace) is what lets the experiment engine run
// hundreds of traces concurrently against shared planning work.
//
// DPNextFailure re-plans incrementally: each session keeps scratch slabs
// for the age groups and the survival grid, borrows its DP value/argmin
// tables per solve from a pool shared by all instances, reuses the grid
// when its inputs are bitwise unchanged, and serves the previous plan
// outright when the whole decision state is — so the post-failure hot
// path is allocation-free and often solve-free. Grids of
// at most four age groups can also be shared: the pristine state's across
// planners through a process-wide cache (WithSharedGrids, wired by
// engine.SharedGridOptions), and later states' across the instances of one
// scope (NewScopedPolicy, wired by engine.Engine.DPNextFailure) — their
// keys carry post-failure ages that only that scope's runs meet. An
// instance-owned grid of more groups is filled only where the solve reads
// it: listGridReads walks the solve's states and candidates with its own
// float expressions and lists the entries survivalGrid.at touches (a
// quarter to two thirds of the grid at 30 quanta, nearly all at 150), the
// list is kept while (x, u, c) stays, and each listed entry is computed
// exactly as a complete fill computes it. A partly filled grid is never
// shared, and is reused only for the (x, u, c) it was listed for. Each
// instance also remembers, up to planMemoMax of them, the plans it
// solved on shared grids, keyed by the grid's identity (a shared grid is
// immutable, so its identity names its bits) and the bits of (x, u, c),
// everything a solve reads: a run that returns to a state it already
// planned, as runs on one processor keep doing after each failure,
// serves the stored plan instead of solving again.
// None of this changes a single decision:
// exact-mode plans are bit-identical to the frozen from-scratch solver
// in dpnextfailure_reference.go, which exists solely as the oracle for
// the differential suite (dpnf_differential_test.go) and
// FuzzDPNextFailureReplan. The one knowing exception is opt-in:
// WithCoarseQuanta(n) solves post-failure re-plans at a coarser
// resolution with a provable expected-work bound
// V(coarse) >= V(exact) - m*u_c (m exact chunks, u_c the coarse
// quantum); the pristine first plan is always exact.
//
// The declarative layer (repro/internal/spec) registers every policy in
// a name-keyed registry ("young", "dalylow", "dalyhigh", "optexp",
// "bouguerra", "liu", "period", "dpnextfailure", "dpmakespan") that
// compiles JSON policy specs into evaluation candidates.
package policy
