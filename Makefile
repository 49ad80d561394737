# Development entry points. The goldens pin the experiments: each
# experiment tool's testdata holds the byte-exact stdout of every
# registered experiment at the pinned parameters below and, for the
# experiments with a declarative form, the spec file -dump-spec prints,
# whose -spec replay must print the same bytes. CI replays them on every
# push; regenerate with `make spec-goldens` after an intentional change.
# Goldens are floating-point exact on amd64 (CI and the dev containers);
# architectures that fuse multiply-adds (arm64) may differ in the last
# digits.

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

# Machine-readable benchmark baseline for this PR: three real benchmark
# passes piped through chkpt-benchjson into BENCH_$(PR).json, which
# keeps the median of each benchmark's three runs. Bump PR= per stacked
# PR; the prose interpretation stays in BENCH.md.
#
# BENCH_STREAMS is one pass, eight streams that all feed one
# chkpt-benchjson invocation (the parser handles concatenation):
#
#   - every package but the four below runs each rung once (1x), except
#     the store-append and store-replay rungs and
#     BenchmarkEngineTraceCache;
#   - the packages whose rungs take nanoseconds (specialfn, rng, obs,
#     dist) run 100000x, so allocs/op is a per-op figure: at 1x one
#     stray runtime allocation reads as 1 alloc/op and breaks an exact
#     zero-alloc pin;
#   - the advisor's session rungs run at ADVISOR_BENCHTIME: they have
#     stateful burn-in (the DPNextFailure warm-start memo needs the
#     failure pattern to become stationary), so a 1x run would record
#     only the cold first iteration;
#   - BenchmarkSessionDPNextFailureStepWeibull, a millisecond-scale
#     re-plan, runs 500x, past the 128-iteration burn-in during which
#     its 64 units first fail (at 20000x it alone took ~46 s per run);
#   - the advisor's replay rung runs 300x, so each figure averages 300
#     restores: its 20-us young case read 19 to 43 us at 1x;
#   - the store's replay rungs (BenchmarkFileStoreReplay and
#     BenchmarkRemoteStoreReplay) run 300x too, so each figure averages
#     300 restores instead of one cold exchange: at 1x
#     BenchmarkFileStoreReplay read 323 to 580 us on unchanged code;
#   - the store-append rungs (BenchmarkStoreAppend{Mem,File} and
#     BenchmarkRemoteStoreAppend) run 6400x, so their 1, 8 and 64
#     writers each append 6400/writers events per run and ns/op is a
#     per-append figure;
#   - BenchmarkEngineTraceCache, a ~1-us cache hit, runs 1000x: at 1x
#     about a third of its runs read 14 allocs/op instead of 9 (extra
#     allocations of unknown source in some single-iteration runs), so
#     about one pass in four had a median of 14 and failed the 1.5x
#     alloc gate on unchanged code; at 1000x every run reads 9.
PR ?= 22
ADVISOR_BENCHTIME ?= 20000x

BENCH_STREAMS = { $(GO) test -run xxx -bench . -skip 'StoreAppend|StoreReplay|EngineTraceCache' -benchtime 1x -count 3 -benchmem $$($(GO) list ./... | grep -v -E 'internal/(advisor|specialfn|rng|obs|dist)$$'); \
	  $(GO) test -run xxx -bench . -benchtime 100000x -count 3 -benchmem ./internal/specialfn ./internal/rng ./internal/obs ./internal/dist; \
	  $(GO) test -run xxx -bench BenchmarkSession -skip BenchmarkSessionDPNextFailureStepWeibull -benchtime $(ADVISOR_BENCHTIME) -count 3 -benchmem ./internal/advisor; \
	  $(GO) test -run xxx -bench BenchmarkSessionDPNextFailureStepWeibull -benchtime 500x -count 3 -benchmem ./internal/advisor; \
	  $(GO) test -run xxx -bench BenchmarkReplay -benchtime 300x -count 3 -benchmem ./internal/advisor; \
	  $(GO) test -run xxx -bench StoreAppend -benchtime 6400x -count 3 -benchmem ./internal/store ./internal/cluster; \
	  $(GO) test -run xxx -bench StoreReplay -benchtime 300x -count 3 -benchmem ./internal/store ./internal/cluster; \
	  $(GO) test -run xxx -bench EngineTraceCache -benchtime 1000x -count 3 -benchmem .; }

bench-json:
	$(BENCH_STREAMS) | $(GO) run ./cmd/chkpt-benchjson -pr $(PR) > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# Bench-regression gate: rerun the suite with the bench-json recipe and
# diff against the committed baseline. Both sides are medians of three
# runs, so one noisy single-iteration run cannot fail the gate; the
# generous threshold absorbs the rest of shared-runner noise, and the
# alloc gate is exact for zero-alloc pins. CI's bench-smoke job runs this
# target, so PR above is the one setting that names the gate's baseline.
BENCH_BASELINE ?= BENCH_$(PR).json

bench-compare:
	$(BENCH_STREAMS) | $(GO) run ./cmd/chkpt-benchjson -pr $(PR) > /tmp/bench-current.json
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
# DPNextFailure session and a Young one and run a sweep job to
# completion, SIGKILL the server (no drain courtesy), restart over the
# same directory, and require the DPNextFailure session to answer its
# pre-crash decision, the Young session (whose log holds no "advised"
# record, and whose decision predates its last heartbeat) to answer its
# pre-crash body byte for byte bar the expiry, the
# recovery counter to read 2, and the re-submitted sweep job to re-run
# zero cells.
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
	ycreate=$$(curl -sf -X POST --data-binary '{"name":"durable-young","scenario":{"platform":{"preset":"oneproc","mtbf":86400},"p":1,"dist":{"family":"exponential"}},"policy":{"kind":"young"}}' http://$(SERVE_ADDR)/v1/sessions); \
	yid=$$(echo "$$ycreate" | sed -n 's/.*"id": *"\([a-f0-9]*\)".*/\1/p' | head -n 1); \
	test -n "$$yid"; echo "durable young session id: $$yid"; \
	curl -sf -X POST --data-binary '{"events":[{"kind":"failure","time":1000,"unit":0},{"kind":"recovered","time":1660}]}' http://$(SERVE_ADDR)/v1/sessions/$$yid/events | grep -q '"chunk"'; \
	curl -sf -X POST --data-binary '{"events":[{"kind":"progress","time":1700,"work":40}]}' http://$(SERVE_ADDR)/v1/sessions/$$yid/events | grep -q '"now": 1660'; \
	yget=$$(curl -sf http://$(SERVE_ADDR)/v1/sessions/$$yid | grep -v '"expiresAt"'); \
	echo "$$yget" | grep -q '"chunk"'; \
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
	ygot=$$(curl -sf http://$(SERVE_ADDR)/v1/sessions/$$yid | grep -v '"expiresAt"'); \
	test "$$yget" = "$$ygot"; echo "young session answered its pre-crash body"; \
	curl -sf http://$(SERVE_ADDR)/metrics | grep -q '^chkpt_sessions_recovered_total 2'; \
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
	$(GO) test -run xxx -fuzz FuzzReplayMarkers -fuzztime 10s ./internal/advisor
	$(GO) test -run xxx -fuzz FuzzDPNextFailureReplan -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store
	$(GO) test -run xxx -fuzz FuzzSessionRecord -fuzztime 10s ./internal/store
	$(GO) test -run xxx -fuzz FuzzWeibullPow -fuzztime 10s ./internal/dist

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

# Pinned golden parameters, one argument set per tool: chkpt-tables
# pins the tables, chkpt-figures the figures and the extensions. Every
# registered experiment has an output golden (testdata/<id>.golden,
# cmd/chkpt-figures/main_test.go checks the two id lists cover the
# registry), and every experiment with a declarative form a spec fixture
# (testdata/<id>.json, its -dump-spec) beside it, except fig7: its spec
# carries the 20,000 samples of its log (about 1.2 MB), so its golden
# pins output only. Keep the arguments in sync with fixtureParams in
# both tools' main_test.go.
GOLDEN_TOOLS       := chkpt-tables chkpt-figures
chkpt-tables_ARGS  := -traces 3 -quanta 30 -seed 11 -periodlb-traces 4
chkpt-tables_IDS   := table2 table3 table4 spares
chkpt-figures_ARGS := -traces 2 -quanta 25 -seed 5 -periodlb-traces 3
chkpt-figures_IDS  := fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig98 fig99 fig100 \
	figA-period-exp figA-period-weibull figB-matrix replication ablation-dpnf optimal-p
NO_SPEC_FIXTURE    := fig7
SIM_ARGS           := -platform petascale -p 4096 -law weibull -shape 0.7 -policy dpnextfailure -quanta 60 -traces 4 -seed 9
TRACE_ARGS         := -law weibull -mtbf 2e6 -shape 0.7 -units 8 -horizon 5e7 -downtime 60 -seed 13

# Both targets build the tools once into a temporary directory.
GOLDEN_BUILD = bin=$$(mktemp -d); trap 'rm -rf $$bin' EXIT; \
	$(GO) build -o $$bin/ $(GOLDEN_TOOLS:%=./cmd/%) ./cmd/chkpt-sim ./cmd/chkpt-traces

spec-goldens:
	@set -e; $(GOLDEN_BUILD); \
	$(foreach t,$(GOLDEN_TOOLS),for id in $($(t)_IDS); do \
	  out=cmd/$(t)/testdata/$$id; echo "$(t) $$id"; \
	  $$bin/$(t) $($(t)_ARGS) -exp $$id 2>/dev/null > $$out.golden; \
	  rm -f $$out.json; \
	  if [ "$$id" != $(NO_SPEC_FIXTURE) ]; then \
	    $$bin/$(t) $($(t)_ARGS) -exp $$id -dump-spec > $$out.json 2>/dev/null || rm -f $$out.json; \
	  fi; \
	done;) \
	$$bin/chkpt-sim $(SIM_ARGS) -dump-spec > cmd/chkpt-sim/testdata/run.json; \
	$$bin/chkpt-sim -spec cmd/chkpt-sim/testdata/run.json > cmd/chkpt-sim/testdata/run.golden; \
	$$bin/chkpt-traces gen-trace $(TRACE_ARGS) -dump-spec > cmd/chkpt-traces/testdata/trace.json; \
	$$bin/chkpt-traces gen-trace -spec cmd/chkpt-traces/testdata/trace.json 2>/dev/null > cmd/chkpt-traces/testdata/trace.golden

# Diff the flag-driven output of every pinned id against its golden, and
# replay every checked-in spec fixture against the same golden: the
# declarative-API contract that a dumped spec prints what the flags do.
spec-golden-check:
	@set -e; $(GOLDEN_BUILD); \
	$(foreach t,$(GOLDEN_TOOLS),for id in $($(t)_IDS); do \
	  echo "$(t) -exp $$id"; \
	  $$bin/$(t) $($(t)_ARGS) -exp $$id 2>/dev/null | diff cmd/$(t)/testdata/$$id.golden -; \
	done; \
	for fixture in cmd/$(t)/testdata/*.json; do \
	  echo "$(t) -spec $$fixture"; \
	  $$bin/$(t) -spec $$fixture 2>/dev/null | diff $${fixture%.json}.golden -; \
	done;) \
	$$bin/chkpt-sim -spec cmd/chkpt-sim/testdata/run.json | diff cmd/chkpt-sim/testdata/run.golden -; \
	$$bin/chkpt-sim $(SIM_ARGS) | diff cmd/chkpt-sim/testdata/run.golden -; \
	$$bin/chkpt-traces gen-trace -spec cmd/chkpt-traces/testdata/trace.json 2>/dev/null | diff cmd/chkpt-traces/testdata/trace.golden -; \
	$$bin/chkpt-traces gen-trace $(TRACE_ARGS) 2>/dev/null | diff cmd/chkpt-traces/testdata/trace.golden -; \
	echo "spec goldens OK"
