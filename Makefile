# Development entry points. The spec goldens pin the declarative
# experiment layer: each cmd's testdata holds a spec file (the output of
# -dump-spec at the pinned parameters below) and the byte-exact stdout of
# running it with -spec. CI replays them on every push; regenerate with
# `make spec-goldens` after an intentional change. Goldens are
# floating-point exact on amd64 (CI and the dev containers); architectures
# that fuse multiply-adds (arm64) may differ in the last digits.

GO ?= go

.PHONY: build test vet lint race bench-smoke bench-json bench-compare serve-smoke session-smoke cluster-smoke fuzz-smoke perfbench-smoke spec-goldens spec-golden-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting, go vet, and the project's own analyzers (cmd/chkpt-vet):
# determinism, ctxflow, errwrap, registry, nopanic, retrysafe. See
# internal/analysis/doc.go for what each one guards and the
# //chkpt:allow suppression syntax.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
	  echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/chkpt-vet ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Machine-readable benchmark baseline for this PR: one real benchmark
# pass piped through chkpt-benchjson into BENCH_$(PR).json. Bump PR=
# per stacked PR; the prose interpretation stays in BENCH.md.
#
# The advisor package runs at a fixed multi-iteration count instead of
# -benchtime 1x: its session benches have stateful burn-in (the
# DPNextFailure warm-start memo needs the failure pattern to become
# stationary), so a 1x run would record only the cold first iteration.
# Everything else stays at 1x to keep the pass fast; both streams feed
# one chkpt-benchjson invocation (the parser handles concatenation).
PR ?= 17
ADVISOR_BENCHTIME ?= 20000x

bench-json:
	{ $(GO) test -run xxx -bench . -benchtime 1x -benchmem $$($(GO) list ./... | grep -v internal/advisor); \
	  $(GO) test -run xxx -bench . -benchtime $(ADVISOR_BENCHTIME) -benchmem ./internal/advisor; } \
	  | $(GO) run ./cmd/chkpt-benchjson -pr $(PR) > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# Bench-regression gate: rerun the suite with the bench-json recipe and
# diff against the committed baseline. The generous threshold absorbs
# shared-runner noise; the alloc gate is exact for zero-alloc pins. CI's
# bench-smoke job runs this target, so PR above is the one setting that
# names the gate's baseline.
BENCH_BASELINE ?= BENCH_$(PR).json

bench-compare:
	{ $(GO) test -run xxx -bench . -benchtime 1x -benchmem $$($(GO) list ./... | grep -v internal/advisor); \
	  $(GO) test -run xxx -bench . -benchtime $(ADVISOR_BENCHTIME) -benchmem ./internal/advisor; } \
	  | $(GO) run ./cmd/chkpt-benchjson -pr $(PR) > /tmp/bench-current.json
	$(GO) run ./cmd/chkpt-benchjson compare -threshold 5 -allocs-threshold 1.5 -min-ns 1000 $(BENCH_BASELINE) /tmp/bench-current.json

# Boot chkpt-serve, wait for /healthz, assert one real /v1/recommend
# evaluation answers 200 with non-empty JSON, then walk the
# observability surface: a session event under a known X-Request-ID must
# surface that id in /v1/debug/traces alongside replan and append spans,
# /metrics must expose the span-fed stage histograms with real counts,
# and the -debug-addr pprof listener must serve a 1-second CPU profile.
# Finally shut down cleanly (SIGTERM must drain, not linger). A real
# binary, not `go run`: the wrapper does not forward SIGTERM to the
# child. Override CHKPT_SERVE to smoke a prebuilt binary (CI does).
CHKPT_SERVE ?= /tmp/chkpt-serve-smoke
SERVE_ADDR  ?= 127.0.0.1:8941
DEBUG_ADDR  ?= 127.0.0.1:8951

serve-smoke:
	@set -e; \
	if [ "$(CHKPT_SERVE)" = "/tmp/chkpt-serve-smoke" ]; then $(GO) build -o $(CHKPT_SERVE) ./cmd/chkpt-serve; fi; \
	datadir=$$(mktemp -d); \
	$(CHKPT_SERVE) -addr $(SERVE_ADDR) -debug-addr $(DEBUG_ADDR) -log-format json -data-dir $$datadir -drain 5s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$datadir' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	health=$$(curl -sf http://$(SERVE_ADDR)/healthz); \
	echo "healthz: $$health"; test -n "$$health"; \
	rec=$$(curl -sf "http://$(SERVE_ADDR)/v1/recommend?platform=oneproc&mtbf=86400&family=exponential&traces=3&quanta=30&seed=11"); \
	echo "$$rec" | head -n 12; test -n "$$rec"; \
	create=$$(curl -sf -X POST --data-binary '{"name":"obs-smoke","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"dpnextfailure","quanta":30}}' http://$(SERVE_ADDR)/v1/sessions); \
	id=$$(echo "$$create" | sed -n 's/.*"id": *"\([a-f0-9]*\)".*/\1/p' | head -n 1); \
	test -n "$$id"; echo "session id: $$id"; \
	curl -sf -H 'X-Request-ID: smoke-events-1' -X POST --data-binary '{"events":[{"kind":"failure","time":1000,"unit":0},{"kind":"recovered","time":1660}]}' http://$(SERVE_ADDR)/v1/sessions/$$id/events | grep -q '"chunk"'; \
	traces=$$(curl -sf "http://$(SERVE_ADDR)/v1/debug/traces?limit=512"); \
	echo "$$traces" | grep -q '"request": *"smoke-events-1"'; \
	echo "$$traces" | grep -q '"name": *"advisor.replan"'; \
	echo "$$traces" | grep -q '"name": *"store.append"'; \
	echo "traces OK (request id + replan + append spans)"; \
	metrics=$$(curl -sf http://$(SERVE_ADDR)/metrics); \
	echo "$$metrics" | grep -q '^chkpt_replan_seconds_bucket{warm="false",le="+Inf"} [1-9]'; \
	echo "$$metrics" | grep -q '^chkpt_store_fsync_seconds_count [1-9]'; \
	echo "$$metrics" | grep -q '^chkpt_engine_cell_seconds_bucket'; \
	echo "$$metrics" | grep -q '^chkpt_engine_cache_seconds_bucket{result="miss",le="+Inf"} [1-9]'; \
	echo "metrics OK (stage histograms populated)"; \
	curl -sf "http://$(DEBUG_ADDR)/debug/pprof/profile?seconds=1" -o /tmp/serve-smoke-profile.pb.gz; \
	test -s /tmp/serve-smoke-profile.pb.gz; echo "pprof OK ($$(wc -c < /tmp/serve-smoke-profile.pb.gz) bytes)"; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	rm -rf $$datadir; \
	echo "serve smoke OK"

# Online-session round trip against the real binary: create a session,
# post a failure + recovery, assert a fresh decision comes back, delete
# it, then SIGTERM and require a clean drain (open sessions must not
# block shutdown). Complements serve-smoke, which covers the evaluation
# endpoints.
#
# Phase two is the durability smoke: reboot with -data-dir, open a
# session and run a sweep job to completion, SIGKILL the server (no
# drain courtesy), restart over the same directory, and require the
# session to answer its pre-crash decision, the recovery counter to read
# 1, and the re-submitted sweep job to re-run zero cells.
session-smoke:
	@set -e; \
	if [ "$(CHKPT_SERVE)" = "/tmp/chkpt-serve-smoke" ]; then $(GO) build -o $(CHKPT_SERVE) ./cmd/chkpt-serve; fi; \
	$(CHKPT_SERVE) -addr $(SERVE_ADDR) -drain 5s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(SERVE_ADDR)/healthz | grep -q '"version"'; \
	create=$$(curl -sf -X POST --data-binary '{"name":"smoke","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"young"}}' http://$(SERVE_ADDR)/v1/sessions); \
	echo "$$create" | head -n 20; \
	echo "$$create" | grep -q '"chunk"'; \
	id=$$(echo "$$create" | sed -n 's/.*"id": *"\([a-f0-9]*\)".*/\1/p' | head -n 1); \
	test -n "$$id"; echo "session id: $$id"; \
	dec=$$(curl -sf -X POST --data-binary '{"events":[{"kind":"failure","time":1000,"unit":0},{"kind":"recovered","time":1660}]}' http://$(SERVE_ADDR)/v1/sessions/$$id/events); \
	echo "$$dec" | head -n 20; \
	echo "$$dec" | grep -q '"chunk"'; echo "$$dec" | grep -q '"failures": 1'; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X DELETE http://$(SERVE_ADDR)/v1/sessions/$$id); \
	test "$$code" = "204"; \
	curl -sf -X POST --data-binary '{"name":"left-open","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"dalyhigh"}}' http://$(SERVE_ADDR)/v1/sessions | grep -q '"chunk"'; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "session smoke OK (drained with a session open)"; \
	datadir=$$(mktemp -d); \
	$(CHKPT_SERVE) -addr $(SERVE_ADDR) -drain 5s -data-dir $$datadir & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf $$datadir' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	create=$$(curl -sf -X POST --data-binary '{"name":"durable","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"dpnextfailure","quanta":30}}' http://$(SERVE_ADDR)/v1/sessions); \
	id=$$(echo "$$create" | sed -n 's/.*"id": *"\([a-f0-9]*\)".*/\1/p' | head -n 1); \
	test -n "$$id"; echo "durable session id: $$id"; \
	dec=$$(curl -sf -X POST --data-binary '{"events":[{"kind":"failure","time":1000,"unit":0},{"kind":"recovered","time":1660}]}' http://$(SERVE_ADDR)/v1/sessions/$$id/events); \
	chunk=$$(echo "$$dec" | grep -o '"chunk": [0-9.e+-]*' | head -n 1); \
	test -n "$$chunk"; echo "pre-crash decision: $$chunk"; \
	job=$$(curl -sf -X POST --data-binary '{"name":"durable-sweep","scenario":{"name":"cell","platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"},"horizon":63072000,"traces":2,"seed":7},"grid":{"mtbf":[43200,86400]},"candidates":{"policies":[{"kind":"young"}]}}' http://$(SERVE_ADDR)/v1/sweeps); \
	jobid=$$(echo "$$job" | sed -n 's/.*"id": *"\([a-f0-9]*\)".*/\1/p' | head -n 1); \
	test -n "$$jobid"; echo "sweep job id: $$jobid"; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sweep_cells_computed_total 2' && break; sleep 0.2; \
	done; \
	curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sweep_cells_computed_total 2'; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "server killed (SIGKILL); restarting over $$datadir"; \
	$(CHKPT_SERVE) -addr $(SERVE_ADDR) -drain 5s -data-dir $$datadir & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$datadir' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	get=$$(curl -sf http://$(SERVE_ADDR)/v1/sessions/$$id); \
	echo "$$get" | grep -qF "$$chunk"; \
	echo "$$get" | grep -q '"failures": 1'; \
	curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sessions_recovered_total 1'; \
	resub=$$(curl -sf -X POST --data-binary '{"name":"durable-sweep","scenario":{"name":"cell","platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"},"horizon":63072000,"traces":2,"seed":7},"grid":{"mtbf":[43200,86400]},"candidates":{"policies":[{"kind":"young"}]}}' http://$(SERVE_ADDR)/v1/sweeps); \
	echo "$$resub" | grep -q '"resumed": true'; \
	echo "$$resub" | grep -q '"completed": 2'; \
	echo "$$resub" | grep -q '"done": true'; \
	curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sweep_cells_restored_total 2'; \
	curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sweep_cells_computed_total 0'; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	rm -rf $$datadir; \
	echo "session smoke OK (recovered the session and the sweep job after SIGKILL)"

# Multi-replica topology smoke: one chkpt-store owning the durable
# directory, two chkpt-serve replicas mounted on it via -store, and a
# chkpt-lb round-robin forwarder in front. A DPNextFailure session and a
# completed sweep job are created through replica A, A is SIGKILLed (no
# drain courtesy), and replica B must answer the same session
# byte-identically (modulo the per-replica expiry timestamp) by
# replaying the shared log, count the rehydration in
# chkpt_sessions_recovered_total, and resume the sweep job with zero
# cells re-run. The store server's own /metrics must then count the
# fsyncs (C) and the replay (R) it performed, in its stage histograms
# chkpt_store_fsync_seconds and chkpt_store_replay_seconds. The
# forwarder must keep serving through the dead backend. Binaries are
# real (not `go run`) so signals reach the child; CI overrides
# CHKPT_STORE/CHKPT_SERVE/CHKPT_LB with prebuilt paths.
CHKPT_STORE ?= /tmp/chkpt-store-smoke
CHKPT_LB    ?= /tmp/chkpt-lb-smoke
STORE_ADDR  ?= 127.0.0.1:8961
SERVE_A     ?= 127.0.0.1:8962
SERVE_B     ?= 127.0.0.1:8963
LB_ADDR     ?= 127.0.0.1:8964

cluster-smoke:
	@set -e; \
	if [ "$(CHKPT_SERVE)" = "/tmp/chkpt-serve-smoke" ]; then $(GO) build -o $(CHKPT_SERVE) ./cmd/chkpt-serve; fi; \
	if [ "$(CHKPT_STORE)" = "/tmp/chkpt-store-smoke" ]; then $(GO) build -o $(CHKPT_STORE) ./cmd/chkpt-store; fi; \
	if [ "$(CHKPT_LB)" = "/tmp/chkpt-lb-smoke" ]; then $(GO) build -o $(CHKPT_LB) ./cmd/chkpt-lb; fi; \
	datadir=$$(mktemp -d); \
	$(CHKPT_STORE) -addr $(STORE_ADDR) -data-dir $$datadir -drain 5s & storepid=$$!; \
	$(CHKPT_SERVE) -addr $(SERVE_A) -store http://$(STORE_ADDR) -replica-id smoke-a -drain 5s & apid=$$!; \
	$(CHKPT_SERVE) -addr $(SERVE_B) -store http://$(STORE_ADDR) -replica-id smoke-b -drain 5s & bpid=$$!; \
	$(CHKPT_LB) -addr $(LB_ADDR) -backends http://$(SERVE_A),http://$(SERVE_B) -drain 5s & lbpid=$$!; \
	trap 'kill -9 $$storepid $$apid $$bpid $$lbpid 2>/dev/null || true; rm -rf $$datadir' EXIT; \
	for addr in $(STORE_ADDR) $(SERVE_A) $(SERVE_B) $(LB_ADDR); do \
	  for i in $$(seq 1 50); do \
	    curl -sf http://$$addr/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	  done; \
	  curl -sf http://$$addr/healthz >/dev/null; \
	done; \
	echo "store + 2 replicas + forwarder up"; \
	create=$$(curl -sf -X POST --data-binary '{"name":"cluster","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"dpnextfailure","quanta":30}}' "http://$(SERVE_A)/v1/sessions?id=cluster-smoke-1"); \
	echo "$$create" | grep -q '"id": *"cluster-smoke-1"'; \
	echo "$$create" | grep -q '"chunk"'; \
	dec=$$(curl -sf -H 'X-Request-ID: cluster-smoke-events' -X POST --data-binary '{"events":[{"kind":"failure","time":1000,"unit":0},{"kind":"recovered","time":1660}]}' http://$(SERVE_A)/v1/sessions/cluster-smoke-1/events); \
	echo "$$dec" | grep -q '"chunk"'; echo "$$dec" | grep -q '"failures": 1'; \
	geta=$$(curl -sf http://$(SERVE_A)/v1/sessions/cluster-smoke-1 | grep -v '"expiresAt"'); \
	test -n "$$geta"; echo "session created on A"; \
	job=$$(curl -sf -X POST --data-binary '{"name":"cluster-sweep","scenario":{"name":"cell","platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"},"horizon":63072000,"traces":2,"seed":7},"grid":{"mtbf":[43200,86400]},"candidates":{"policies":[{"kind":"young"}]}}' http://$(SERVE_A)/v1/sweeps); \
	test -n "$$job"; \
	for i in $$(seq 1 50); do \
	  curl -sf http://$(SERVE_A)/metrics | grep -q '^chkpt_sweep_cells_computed_total 2' && break; sleep 0.2; \
	done; \
	curl -sf http://$(SERVE_A)/metrics | grep -q '^chkpt_sweep_cells_computed_total 2'; \
	echo "sweep completed on A"; \
	kill -9 $$apid; wait $$apid 2>/dev/null || true; \
	echo "replica A killed (SIGKILL); recovering on B"; \
	getb=$$(curl -sf http://$(SERVE_B)/v1/sessions/cluster-smoke-1 | grep -v '"expiresAt"'); \
	test "$$geta" = "$$getb"; \
	echo "B answered the session byte-identically"; \
	curl -sf http://$(SERVE_B)/metrics | grep -q '^chkpt_sessions_recovered_total 1'; \
	storemetrics=$$(curl -sf http://$(STORE_ADDR)/metrics); \
	echo "$$storemetrics" | grep -q '^chkpt_store_fsync_seconds_count [1-9]'; \
	echo "$$storemetrics" | grep -q '^chkpt_store_replay_seconds_count [1-9]'; \
	echo "store measured its own fsyncs (C) and replay (R)"; \
	resub=$$(curl -sf -X POST --data-binary '{"name":"cluster-sweep","scenario":{"name":"cell","platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"},"horizon":63072000,"traces":2,"seed":7},"grid":{"mtbf":[43200,86400]},"candidates":{"policies":[{"kind":"young"}]}}' http://$(SERVE_B)/v1/sweeps); \
	echo "$$resub" | grep -q '"resumed": true'; \
	echo "$$resub" | grep -q '"completed": 2'; \
	echo "$$resub" | grep -q '"done": true'; \
	curl -sf http://$(SERVE_B)/metrics | grep -q '^chkpt_sweep_cells_restored_total 2'; \
	curl -sf http://$(SERVE_B)/metrics | grep -q '^chkpt_sweep_cells_computed_total 0'; \
	echo "sweep resumed on B with zero cells re-run"; \
	for i in 1 2 3 4; do \
	  curl -sf http://$(LB_ADDR)/v1/sessions/cluster-smoke-1 | grep -q '"chunk"'; \
	done; \
	echo "forwarder keeps serving through the dead backend"; \
	kill $$bpid $$lbpid $$storepid; \
	wait $$bpid 2>/dev/null || true; wait $$lbpid 2>/dev/null || true; wait $$storepid 2>/dev/null || true; \
	rm -rf $$datadir; \
	echo "cluster smoke OK"

# One short native-fuzz pass per fuzz target: the corpus-free smoke that
# keeps the fuzz functions compiling and the decoders panic-free.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeExperiment -fuzztime 10s ./internal/spec
	$(GO) test -run xxx -fuzz FuzzDecodeSession -fuzztime 10s ./internal/spec
	$(GO) test -run xxx -fuzz FuzzSessionEvents -fuzztime 10s ./internal/advisor
	$(GO) test -run xxx -fuzz FuzzDPNextFailureReplan -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store
	$(GO) test -run xxx -fuzz FuzzSessionRecord -fuzztime 10s ./internal/store

# The repository benchmark is a module of its own (perfbench/, outside
# the root ./...), so nothing else compiles it. Vet it, run its tests,
# then run each workload for 2 seconds in traced mode, which also runs
# an untraced phase and fails if a layer the workload uses records no
# call. Every run must report "correct":true.
PERFBENCH_WORKLOADS := sessions recover-cluster evaluate

perfbench-smoke:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	@set -e; for w in $(PERFBENCH_WORKLOADS); do \
	  result=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1); \
	  echo "$$w: $$result"; \
	  echo "$$result" | grep -q '"correct":true' || { echo "perfbench $$w: result is not correct" >&2; exit 1; }; \
	done; \
	echo "perfbench smoke OK"

# Pinned fixture parameters — keep in sync with cmd/chkpt-tables/main_test.go.
TABLE2_ARGS   := -exp table2 -traces 3 -quanta 30 -seed 11 -periodlb-traces 4
FIG5_ARGS     := -exp fig5 -traces 2 -quanta 25 -seed 5 -periodlb-traces 3
SIM_ARGS      := -platform petascale -p 4096 -law weibull -shape 0.7 -policy dpnextfailure -quanta 60 -traces 4 -seed 9
TRACE_ARGS    := -law weibull -mtbf 2e6 -shape 0.7 -units 8 -horizon 5e7 -downtime 60 -seed 13

spec-goldens:
	$(GO) run ./cmd/chkpt-tables $(TABLE2_ARGS) -dump-spec > cmd/chkpt-tables/testdata/table2.json
	$(GO) run ./cmd/chkpt-tables -spec cmd/chkpt-tables/testdata/table2.json 2>/dev/null > cmd/chkpt-tables/testdata/table2.golden
	$(GO) run ./cmd/chkpt-figures $(FIG5_ARGS) -dump-spec > cmd/chkpt-figures/testdata/fig5.json
	$(GO) run ./cmd/chkpt-figures -spec cmd/chkpt-figures/testdata/fig5.json 2>/dev/null > cmd/chkpt-figures/testdata/fig5.golden
	$(GO) run ./cmd/chkpt-sim $(SIM_ARGS) -dump-spec > cmd/chkpt-sim/testdata/run.json
	$(GO) run ./cmd/chkpt-sim -spec cmd/chkpt-sim/testdata/run.json > cmd/chkpt-sim/testdata/run.golden
	$(GO) run ./cmd/chkpt-traces gen-trace $(TRACE_ARGS) -dump-spec > cmd/chkpt-traces/testdata/trace.json
	$(GO) run ./cmd/chkpt-traces gen-trace -spec cmd/chkpt-traces/testdata/trace.json 2>/dev/null > cmd/chkpt-traces/testdata/trace.golden

# Replay every checked-in spec fixture and diff against its golden; for
# chkpt-tables also prove the flag-driven invocation matches the
# spec-driven one byte-for-byte (the declarative-API contract).
spec-golden-check:
	$(GO) run ./cmd/chkpt-tables -spec cmd/chkpt-tables/testdata/table2.json 2>/dev/null | diff cmd/chkpt-tables/testdata/table2.golden -
	$(GO) run ./cmd/chkpt-tables $(TABLE2_ARGS) 2>/dev/null | diff cmd/chkpt-tables/testdata/table2.golden -
	$(GO) run ./cmd/chkpt-figures -spec cmd/chkpt-figures/testdata/fig5.json 2>/dev/null | diff cmd/chkpt-figures/testdata/fig5.golden -
	$(GO) run ./cmd/chkpt-figures $(FIG5_ARGS) 2>/dev/null | diff cmd/chkpt-figures/testdata/fig5.golden -
	$(GO) run ./cmd/chkpt-sim -spec cmd/chkpt-sim/testdata/run.json | diff cmd/chkpt-sim/testdata/run.golden -
	$(GO) run ./cmd/chkpt-sim $(SIM_ARGS) | diff cmd/chkpt-sim/testdata/run.golden -
	$(GO) run ./cmd/chkpt-traces gen-trace -spec cmd/chkpt-traces/testdata/trace.json 2>/dev/null | diff cmd/chkpt-traces/testdata/trace.golden -
	$(GO) run ./cmd/chkpt-traces gen-trace $(TRACE_ARGS) 2>/dev/null | diff cmd/chkpt-traces/testdata/trace.golden -
	@echo "spec goldens OK"
