// Package spec is the declarative experiment layer: JSON-serializable
// descriptions of failure laws (DistSpec), platforms (PlatformRef),
// policies (PolicySpec), scenarios (ScenarioSpec) and whole experiments
// (ExperimentSpec), backed by name-keyed registries, so a full paper
// evaluation — including grid sweeps over processors, shape, overhead
// model and candidate sets — can be declared in a file, compiled to
// harness values, and executed with one call.
//
// The package deliberately separates three phases:
//
//   - decode: strict JSON (unknown fields are errors) into plain spec
//     structs — see DecodeExperiment/LoadExperiment;
//   - compile: specs resolve registry names and parameters into domain
//     values (dist.Distribution, platform.Spec, harness.Scenario,
//     harness.Candidate), validating everything up front;
//   - execute: Run streams completed cells as an iter.Seq2 in
//     deterministic expansion order on an engine worker pool, honoring
//     context cancellation.
//
// Registries. Every distribution family in internal/dist, every policy in
// internal/policy and every Table 1 platform preset registers a named
// constructor in an init function (RegisterDist, RegisterPolicy,
// RegisterPlatform); DistFamilies, PolicyKinds and PlatformNames
// enumerate them. The paper's §4.1 standard set (StandardSpec) expands
// into registered kinds too, so every candidate is built in one place.
// Encoding is round-trip safe: encoding/json marshals
// float64 with the shortest representation that parses back to the same
// bits, so encode → decode → build reproduces bit-identical laws — the
// property the spec_test suite asserts for every registered name.
//
// Reproducibility contract: a dumped spec (cmd tools' -dump-spec)
// re-executed through -spec produces byte-identical output to the
// flag-driven invocation, and the expansion order of grids is part of the
// format — reordering axes is a breaking change.
//
// Beyond batch experiments, SessionSpec + CompileAdvisor compile a
// (scenario, policy) pair into an online advisor (internal/advisor)
// through the same policy registry and engine cache — the declarative
// entry point behind the HTTP service's POST /v1/sessions.
package spec
