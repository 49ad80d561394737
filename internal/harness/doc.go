// Package harness implements the paper's experimental methodology (§4).
//
// Paper mapping, one entry point per operation:
//
//   - Scenario: one fully specified configuration — platform spec
//     (Table 1), processor count, failure law, overhead and work models,
//     horizon/release convention (§4.1 uses a 1-year horizon and release 0
//     for single-processor runs, 11 years and a 1-year release otherwise),
//     trace count and seed (scenario.go);
//   - Evaluate: the §4.1 average-degradation-from-best metric — every
//     candidate and the omniscient LowerBound run on identical traces,
//     each trace's reference is the best heuristic makespan, and
//     per-policy statistics aggregate over traces (evaluate.go). Traces
//     execute concurrently on the experiment engine's worker pool with
//     trace-indexed aggregation, so results are identical for every
//     worker count;
//   - SearchPeriodLB: the §4.1 numerical period search around OptExp —
//     geometric 1.1^j grid then (1+0.05i) refinement, paired traces,
//     candidates of each phase scored concurrently; BasePeriod is its
//     centre, and the base of the Appendix A period sweeps (periodlb.go);
//   - DPMakespanCandidate: the Algorithm 1 table under the paper's
//     rejuvenation assumption for parallel jobs (candidates.go);
//   - Table/Series renderers for the aligned-text and CSV artifacts
//     (table.go).
//
// The harness holds the method, not the policy sets: the §4.1 standard
// set and every other candidate are built from the policy registry of
// repro/internal/spec (spec.StandardSpec, spec.PolicySpec), which
// compiles JSON scenario and candidate descriptions down to this
// package's Scenario and Candidate values. Every entry point takes a
// context.Context and an engine, threaded through to the simulator, so
// a long evaluation is cancellable and deadline-bounded without changing
// results. Evaluation results stream through Evaluation.Rows, an
// iter.Seq2 row iterator in display order.
package harness
