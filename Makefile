# Development targets. `make check` is the gate every change must pass:
# build, vet, lint, and the full test suite under the race detector.

GO ?= go

.PHONY: check build vet lint test race race-hammer zeroalloc fuzz-smoke bench benchjson bench-json bench-diff serve slo-gate watchdog-test

check: build vet lint race zeroalloc

build:
	$(GO) build ./...

# bench/ is its own module, which `./...` does not enter; vetting it
# here catches a change to an API depbench calls before CI's bench step.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# gofmt must be clean; staticcheck runs when installed (CI installs it,
# local sandboxes may not have it — skipping is not a failure there).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency pins, repeated across GOMAXPROCS settings: 32 writers
# republishing a schema against 32 readers running batches, every answer
# checked against the Σ its echoed version published; 32 clients
# sending inline requests over shared Σ while the compiled-system memo
# evicts under them, every verdict checked; recorded queries and batches
# against readers of /debug/traces, /debug/otlp, /metrics, a tsdb
# sampler and a file exporter, pinning that a published span tree is
# never written again; 16 goroutines mixing tagged puts, gets and
# invalidation sweeps on one answer cache; and 8 goroutines sharing one
# engine pool and one registry, whose chase.* totals must equal the sum
# of the same runs on private registries (each run flushes its counts
# once, when it ends). 8 clients of one server also pin the access
# log's choice of lines, which rides on an atomic sequence number.
race-hammer:
	$(GO) test -race -cpu 1,2,8 -run 'TestRegistryRaceHammer|TestCompileMemoRaceHammer|TestTraceTreeRaceHammer|TestAccessLogSampling' -count=1 ./internal/serve/
	$(GO) test -race -cpu 1,2,8 -run 'TestAnswerCacheInvalidateRace' -count=1 ./internal/core/
	$(GO) test -race -cpu 1,2,8 -run 'TestPoolConcurrentCountsExact' -count=1 ./internal/chase/

# The zero-cost-when-off gate: the chase with instrumentation and
# provenance disabled must stay under its pinned allocation ceiling, and
# the warm pooled chase must allocate nothing. The second line runs the
# chase package's own pins without -race (the pool pin skips itself
# under the race detector, so `make race` never runs it). The next two
# pin the per-goal path: a compiled fd proof (Prove plus String of a
# 14-step chain, its closure scratch on the stack) within 3
# allocations, and a query-digest admission into a full shard at zero.
# The next pins an instrumented
# System.Implies on a warm pool, whose span tree is built once and never
# copied, and whose goal is rendered once: within 10 allocations on an
# fd goal and 20 on the Proposition 4.1 chase; and the fingerprint
# extras, one allocation at the default budget and two at any other.
# The next pins one
# ind.Decide call on width-2 IND chains, whose frontier is keyed by
# int32 relation and attribute IDs, and the next one early-hit
# counterexample search at core's fallback bounds (Domain 3, MaxTuples
# 3, RandomTrials 300), which runs on its caller's goroutine. The last
# pins the serving path through the whole handler: a goal of a 64-goal
# batch against a registered 32-attribute FD chain, answered in order
# as depserve answers every batch, within 8 allocations when every goal
# is cached and 10 when none is (each goal parsed and rendered once, no
# span tree, a pooled key hash), and a repeated inline /v1/implies
# whose fields hit the compiled-system memo by their raw bytes and
# whose cache hit starts no deadline timer, within 54; and the envelope
# every request pays, GET /healthz through the middleware (one context
# value, hex-minted trace IDs, canonical header keys and constant header
# values, a sampled access log), within 40. They skip themselves under
# -race too.
# -count=1 defeats the test cache — an allocation regression must fail
# here even when no _test.go file changed.
zeroalloc:
	$(GO) test -run TestZeroAlloc -count=1 .
	$(GO) test -run 'TestPoolWarmRunAllocFree|TestDisabledObsAllocsPinned' -count=1 ./internal/chase/
	$(GO) test -run TestProverProofAllocs -count=1 ./internal/fd/
	$(GO) test -run TestDigestAdmissionAllocFree -count=1 ./internal/obs/
	$(GO) test -run 'TestImpliesObsAllocs|TestFingerprintOptions' -count=1 ./internal/core/
	$(GO) test -run TestDecideAllocs -count=1 ./internal/ind/
	$(GO) test -run TestSearchAllocs -count=1 ./internal/search/
	$(GO) test -run 'TestBatchGoalAllocs|TestMemoHitImpliesAllocs|TestHealthzAllocs' -count=1 ./internal/serve/

# A short native-fuzzing run per input surface (plain `go test` only
# replays the seed corpora): FuzzParse checks the .dep reader and its
# single-entry parsers line by line; FuzzImplies and FuzzBatch drive
# depserve's handlers with arbitrary schema, sigma and goal strings and
# accept only 200, 400 or 503; FuzzTable checks the int32-tuple interner
# the chase and the IND frontier key by against a map model, across
# resets, growth and the epoch wrap. A failing input lands in the
# package's testdata/fuzz directory for `go test` to replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzImplies$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzBatch$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s ./internal/intern/

bench:
	$(GO) test -bench . -benchmem ./...

# Machine-readable per-engine counters and wall times from the
# reference workloads (see internal/benchws): regenerates the committed
# BENCH_engines.json baseline, after running the hot-path benchmarks
# (interned IND frontier, a full exhaustive search scan) as a smoke check.
# CI runs this to keep the baseline honest.
bench-json:
	$(GO) test -run TestMain -bench 'BenchmarkChaseObs$$|BenchmarkChaseProfile$$|BenchmarkChasePool$$|BenchmarkINDDecide$$|BenchmarkSearchExhaustive$$|BenchmarkBatchImplies$$|BenchmarkFootprintCache$$' -benchjson BENCH_engines.json .

benchjson: bench-json

# Compare a fresh benchws run against the committed baseline. The
# deterministic work counters must match it exactly: any drift fails
# (an engine's algorithm changed; regenerate with `make bench-json`).
# The benchws.*_ns wall-time ratios print with the host's metadata but
# never fail the target: host speed, not the code, moves them, and
# depbench owns timing claims.
bench-diff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_engines.json

# Run the implication service locally with live /metrics.
serve:
	$(GO) run ./cmd/depserve

# The loadgen-driven SLO gate: boot depserve on a scratch port, drive
# the built-in benchws-derived mix at a constant rate, and fail when the
# overall latency or error-rate SLO breaks or a per-scenario p99 runs
# past 4x the committed BENCH_slo.json baseline. The SLO bounds are
# generous on purpose — this gate catches a serve-path that started
# blocking (a full exporter queue, a lock on the hot path), not
# microsecond drift; cmd/benchdiff gates the engines' exact work counters.
# SLO_report.json is the fresh report; CI uploads it as an artifact,
# together with digests_snapshot.json — the query-digest store's view of
# the load it just served (per-fingerprint counts, latency histograms,
# hot dependencies), pulled from /debug/digests before the server dies.
# The server runs with the example watchdog rules and a 500ms sampling
# tick; after the window, timeseries_snapshot.json and
# alerts_snapshot.json capture the retained history and any alert
# transitions the run provoked (also uploaded as CI artifacts).
slo-gate:
	$(GO) build -o /tmp/depserve ./cmd/depserve
	$(GO) build -o /tmp/loadgen ./cmd/loadgen
	/tmp/depserve -addr 127.0.0.1:8399 -ts-resolution 500ms \
		-alert-rules examples/depserve.rules & echo $$! > /tmp/depserve.pid; \
	trap 'kill $$(cat /tmp/depserve.pid) 2>/dev/null' EXIT; \
	/tmp/loadgen -target http://127.0.0.1:8399 -qps 150 -duration 5s -warmup 1s \
		-slo 'p99<250ms,errs<1%' -baseline BENCH_slo.json -tolerance 4.0 \
		-report SLO_report.json; \
	rc=$$?; \
	curl -fsS 'http://127.0.0.1:8399/debug/digests?limit=64' -o digests_snapshot.json \
		|| echo 'digests snapshot unavailable'; \
	curl -fsS 'http://127.0.0.1:8399/debug/timeseries' -o timeseries_snapshot.json \
		|| echo 'timeseries snapshot unavailable'; \
	curl -fsS 'http://127.0.0.1:8399/debug/alerts' -o alerts_snapshot.json \
		|| echo 'alerts snapshot unavailable'; \
	exit $$rc

# The watchdog's end-to-end pin under the race detector: depserve's
# serve surface with an induced latency fault must fire the burn-rate
# alert within one evaluation tick, degrade /readyz, and resolve once
# the fault clears.
watchdog-test:
	$(GO) test -race -run TestWatchdogBurnRateIntegration -count=1 ./internal/serve/
