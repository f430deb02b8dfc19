# Local developer entry points, kept in lockstep with .github/workflows/ci.yml:
# `make ci` runs exactly what CI runs, so a green local `make ci` means a
# green pipeline.

GO ?= go
BENCH_PATTERN ?= .
BENCH_OUT ?= BENCH_results.json
# bench-save: one iteration per benchmark by default — the heavy pipeline
# benchmarks run 1-15 s per op, so 1x keeps a full baseline run under a
# minute while still timing every real computation. Raise for quieter
# numbers on a dedicated box (e.g. make bench-save BENCH_TIME=2s).
BENCH_TIME ?= 1x
BENCH_DATE := $(shell date +%F)
# latest-baseline picks the newest committed baseline matching a glob:
# names sort chronologically under LC_ALL=C (locale collation would order
# same-day letter suffixes before the bare date and silently pick a stale
# baseline). Shared by BENCH_BASELINE and LOADGEN_BASELINE so the two
# compare paths cannot drift apart.
latest-baseline = $(shell ls $(1) 2>/dev/null | LC_ALL=C sort | tail -1)
# The committed baseline the compare step diffs against: the latest
# BENCH_<date>*.json at the repo root.
BENCH_BASELINE ?= $(call latest-baseline,BENCH_2*.json)
# Benchmarks whose ns/op regression beyond 20% draws a warning (never a
# failure): the seed-search kernel, its isolated edge- and node-side
# selection scans and blocked hash term, the warm-Engine reuse pairs, and
# the Section 5 preprocessing passes (G², L(G), Linial on G²).
BENCH_WARN ?= BenchmarkT7_SeedSearch|BenchmarkT7_SelectionScan|BenchmarkT7_NodeSelectionScan|BenchmarkLocalMinNodesSel|BenchmarkEvalSeedsBlocked|BenchmarkEngineReuse|BenchmarkT5_Preprocess
# Repetitions per benchmark for bench-smoke/bench-save: benchjson -median
# collapses the runs into per-benchmark medians, so one noisy-runner outlier
# out of three no longer reads as a regression in bench-compare.
BENCH_COUNT ?= 3

.PHONY: build build-cmds build-cross test race race-engine race-engine-names bench bench-smoke bench-save bench-compare serve-smoke serve-compare profile clean fmt fmt-check vet lint audit ci

# serve-smoke knobs: where detservd listens and where loadgen writes its
# latency quantiles (archived as a CI artifact next to $(BENCH_OUT)).
SERVE_ADDR ?= 127.0.0.1:17317
LOADGEN_OUT ?= LOADGEN_results.json
# The committed serving baseline serve-compare diffs against: the latest
# LOADGEN_<date>*.json at the repo root (via the same latest-baseline
# helper as BENCH_BASELINE).
LOADGEN_BASELINE ?= $(call latest-baseline,LOADGEN_2*.json)
# Every loadgen quantile warns on regression — total-latency p50/p99 and
# the streaming time-to-first-round (ttfr) cells alike.
LOADGEN_WARN ?= ^Loadgen

build:
	$(GO) build ./...

# Every runnable entry point, explicitly: the CLI commands and the example
# programs. They live in the root module so `make build` compiles them today,
# but this target pins the invariant — if an example ever gains a build tag
# or moves into its own module, CI still builds every main package instead of
# silently drifting.
build-cmds:
	$(GO) build ./cmd/...
	$(GO) build ./examples/...

# Cross-compile check: the hash kernel has a GOARCH-gated assembly path
# (amd64 AVX2) with a pure-Go fallback, so both the asm-bearing and the
# fallback-only builds must compile. arm64 exercises the generic path's
# build tags without needing arm64 hardware.
build-cross:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

# Fast feedback: full suite without the race detector.
test:
	$(GO) test ./...

# What CI runs: the full suite under the race detector. The
# worker-count-independence tests (parallel_determinism_test.go) only prove
# the determinism contract when scheduling is adversarial, so -race is the
# configuration that counts.
race:
	$(GO) test -race -timeout 45m ./...

# The warm-Engine determinism tables in isolation, plus the cross-path
# equivalence tables (the single seed-search pipeline against the recorded
# scalar-path outputs and trajectories, sharded vs serial EvalKeys) and the
# request-scoped API tables (cancellation at every Parallelism level against
# a shared engine, per-solve override equivalence, observer-stream
# determinism): worker-count independence of a REUSED engine (dirty scratch
# buffers, pooled contexts) under the race detector. Part of `make race`
# too; this target mirrors the dedicated CI job so an engine-reuse,
# equivalence or cancellation regression is attributable at a glance. The
# serve package rides along: its tests byte-compare served responses
# against direct Engine solves under concurrent mixed load, which is the
# same contract one layer up. The kernel list pins the seed-search driver,
# its sinks and the selection/kernel equivalences (the shared-power k-wise
# kernel's exactness bound and Horner equivalence included) under -race,
# and the sharded Section 5 preprocessing (CSR-direct G² and L(G), Linial
# rounds, deterministic failure reports) against its serial references.
#
# Every name in a -run list must match a test of its packages: the
# race-engine-names step checks each with `go test -list` first and fails
# on a miss, so renaming a test can never silently shrink the gate.
RACE_ENGINE_ROOT = TestEngineReuseWorkerCountIndependence|TestEngineConcurrentSolves|TestHashKernelMatchesScalarPath|TestBlockedKernelMatchesScalarPath|TestLowDegObjectiveKernelVsScalar|TestEvalKeysShardedMatchesSerial|TestEngineCancellationWorkerCountTable|TestEngineCancellationMidSolve|TestSolveOptionOverrideEquivalence|TestObserverDeterministicAcrossParallelism|TestObserverSeedBatchEvents|TestPreparedSolveEquivalence
RACE_ENGINE_KERNEL = TestLocalMinEdgesSelBranchEquivalence|TestLocalMinNodesSelBranchEquivalence|TestCompactRoundMatchesEager|FuzzSelectionStampedMatchesEager|TestInducedNodesMatchesRankedReference|FuzzInducedNodesMatchesRankedReference|FuzzFromEdgesSortedMatchesReference|TestEvalSeedsBlockedFoldMatchesBlocked|TestEvalSeedsBlockedMatchesEvalKeys|FuzzEvalSeedsBlockedFoldMatchesBlocked|FuzzEvalSeedsBlockedMatchesEvalKeys|TestBlockSearchMatchesPlainLoop|FuzzBlockSearchMatchesPlainLoop|TestSinkMatchesClosureReference|TestStageSinkMatchesCountGood|TestEvaluatorMatchesEval|TestLazyDotExactMatchesBound|TestPowerRowsLazySumMatchesEvalPoly|TestSquareMatchesReference|TestLineGraphMatchesReference|FuzzSquareLineGraph|TestLinialMatchesReference|TestFailureReportDeterministic
RACE_ENGINE_KERNEL_PKGS = ./internal/core/ ./internal/hashfam/ ./internal/condexp/ ./internal/matching/ ./internal/mis/ ./internal/lowdeg/ ./internal/sparsify/ ./internal/intmath/ ./internal/graph/ ./internal/coloring/

race-engine: race-engine-names
	$(GO) test -race -timeout 30m -run '$(RACE_ENGINE_ROOT)' .
	$(GO) test -race -timeout 30m ./internal/serve/
	$(GO) test -race -timeout 30m -run '$(RACE_ENGINE_KERNEL)' $(RACE_ENGINE_KERNEL_PKGS)

# check-run-names fails unless every |-separated name in $(1) is the exact
# name of a test, fuzz target or benchmark in the packages $(2).
check-run-names = for name in $(subst |, ,$(1)); do \
		$(GO) test -list "^$$name$$" $(2) | grep -qx "$$name" || { echo "race-engine: no test named $$name in $(2)"; exit 1; }; \
	done

race-engine-names:
	@$(call check-run-names,$(RACE_ENGINE_ROOT),.)
	@$(call check-run-names,$(RACE_ENGINE_KERNEL),$(RACE_ENGINE_KERNEL_PKGS))

# Full benchmark run (minutes); BENCH_PATTERN narrows it.
bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run '^$$' .

# One iteration per benchmark, repeated BENCH_COUNT times and collapsed to
# per-benchmark medians: compiles and exercises every benchmark body, emits
# $(BENCH_OUT) via cmd/benchjson -median. Runs with -benchmem so the archived
# JSON carries B/op + allocs/op and the allocation trajectory can be diffed
# across commits alongside ns/op.
bench-smoke:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime 1x -count $(BENCH_COUNT) -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -median -o $(BENCH_OUT)

# Archive a dated benchmark baseline at the repo root: the full suite through
# cmd/benchjson into BENCH_<date>.json. Commit the file so the performance
# trajectory is diffable across PRs (bench-compare reads the latest one).
# Refuses to clobber an existing baseline for the same date — a committed
# baseline is a historical record; overwrite deliberately by removing the
# file, or pass BENCH_DATE=<date>a for a second run on one day (a letter
# suffix sorts after the bare date under LC_ALL=C, so bench-compare picks
# the newer file; a '-2' suffix would sort before it and go stale).
bench-save:
	@if [ -e BENCH_$(BENCH_DATE).json ]; then \
		echo "bench-save: BENCH_$(BENCH_DATE).json already exists; refusing to overwrite a committed baseline."; \
		echo "bench-save: remove it first, or rerun with BENCH_DATE=$(BENCH_DATE)a (a letter suffix keeps the name sorting after the original, so bench-compare picks it up)."; \
		exit 1; \
	fi
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -median -o BENCH_$(BENCH_DATE).json

# End-to-end serving smoke: build detservd and loadgen, start the server
# (log to .tmp-detservd.log), drive a short mixed profile at two
# concurrency levels — matching and MIS, a quarter of each problem forced
# onto the sparsify strategy (the long solves), and half of every cell
# through the NDJSON streaming path, which adds time-to-first-round
# (ttfr_p50/ttfr_p99) quantiles — and write $(LOADGEN_OUT) in the
# benchjson schema (diff with `make serve-compare`). The server is always
# torn down, and the loadgen exit status (nonzero when any (cell,
# concurrency) bucket had zero successes) is propagated. Binaries are
# built inside the repo and removed afterwards.
serve-smoke:
	$(GO) build -o .tmp-detservd ./cmd/detservd
	$(GO) build -o .tmp-loadgen ./cmd/loadgen
	@./.tmp-detservd -addr $(SERVE_ADDR) -engines 2 > .tmp-detservd.log 2>&1 & echo $$! > .tmp-detservd.pid; \
	./.tmp-loadgen -addr http://$(SERVE_ADDR) -wait 30s \
		-requests 32 -concurrency 1,4 -mix 0.5 -sparsify 0.25 -stream 0.5 \
		-n 1024 -graphs 2 -out $(LOADGEN_OUT); \
	status=$$?; \
	kill $$(cat .tmp-detservd.pid) 2>/dev/null; \
	rm -f .tmp-detservd .tmp-loadgen .tmp-detservd.pid; \
	exit $$status

# Diff a bench-smoke result ($(BENCH_OUT)) against the committed baseline,
# warning — never failing — on >20% ns/op regressions in $(BENCH_WARN).
# Run `make bench-smoke` (or CI's bench-smoke job) first.
bench-compare:
	@if [ -z "$(BENCH_BASELINE)" ]; then echo "bench-compare: no committed BENCH_*.json baseline"; exit 1; fi
	@echo "bench-compare: diffing $(BENCH_OUT) against baseline $(BENCH_BASELINE)"
	$(GO) run ./cmd/benchjson -input $(BENCH_OUT) -compare $(BENCH_BASELINE) -warn '$(BENCH_WARN)' -warn-pct 20

# Diff a serve-smoke result ($(LOADGEN_OUT)) against the committed
# LOADGEN_<date>.json baseline, warning — never failing — on >25% latency
# regressions in any loadgen quantile: total p50/p99 and the streaming
# ttfr cells get the same treatment ns/op gets in bench-compare. The
# threshold is looser than bench-compare's because end-to-end HTTP
# latencies on shared runners are noisier than in-process benchmarks.
# Run `make serve-smoke` first.
serve-compare:
	@if [ -z "$(LOADGEN_BASELINE)" ]; then echo "serve-compare: no committed LOADGEN_*.json baseline"; exit 1; fi
	@echo "serve-compare: diffing $(LOADGEN_OUT) against baseline $(LOADGEN_BASELINE)"
	$(GO) run ./cmd/benchjson -input $(LOADGEN_OUT) -compare $(LOADGEN_BASELINE) -warn '$(LOADGEN_WARN)' -warn-pct 25

# CPU profiles of the sparsify-dominated T1 matching pipeline (where the
# k-wise stage kernel lives) and the three selection-bound pipelines (T2
# MIS, T5 lowdeg stages, T7 seed-search terms) into the git-ignored
# profiles/ directory, ready for `go tool pprof profiles/<name>.pprof`. CI archives the directory
# as an artifact so a perf regression surfaced by bench-compare comes with
# the profile that explains it. The test binary lands in profiles/ too (pprof
# wants it for symbolization).
profile:
	mkdir -p profiles
	$(GO) test -bench 'BenchmarkT1_MatchingRounds' -benchtime 3x -benchmem -run '^$$' -cpuprofile profiles/t1_matching.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkT2_MISRounds' -benchtime 3x -benchmem -run '^$$' -cpuprofile profiles/t2_mis.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkT5_LowDegreeStages' -benchtime 3x -benchmem -run '^$$' -cpuprofile profiles/t5_lowdeg.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkT7_SeedSearch|BenchmarkT7_SelectionScan|BenchmarkT7_NodeSelectionScan' -benchtime 100x -benchmem -run '^$$' -cpuprofile profiles/t7_seedsearch.pprof -o profiles/repro.test .

# Remove build and smoke leftovers: stray compiled test binaries (go test -c
# and aborted -cpuprofile runs drop *.test at the repo root), the serve-smoke
# scratch binaries, pidfile, and server log, the uncommitted bench/loadgen
# result JSONs,
# and the profiles/ directory. Committed BENCH_<date>.json baselines are
# untouched. Runs as the `make ci` teardown; CI jobs upload their artifacts
# from their own steps before this would matter.
clean:
	rm -f *.test .tmp-detservd .tmp-loadgen .tmp-detservd.pid .tmp-detservd.log .tmp-detlint $(BENCH_OUT) $(LOADGEN_OUT)
	rm -rf profiles

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# detlint: the in-tree analyzer suite (cmd/detlint, internal/lint)
# mechanically enforcing the determinism and allocation contracts —
# no raw goroutines or map-range iteration in solver packages, no
# math/rand / wall clock / environment reads on solver paths, no
# unstable sort.Slice anywhere, no captured-float folds in parallel
# shard bodies, no allocation in //det:hotpath kernels. Exemptions are
# explicit in the source as //det:allow <analyzer> <reason>; unused or
# malformed directives fail the run too. The binary is built fresh from
# the tree (stdlib-only, seconds) so the checker can never lag the
# contracts it enforces; `make clean` removes it.
lint:
	$(GO) build -o .tmp-detlint ./cmd/detlint
	./.tmp-detlint ./...

# Pinned third-party audits, invoked via `go run pkg@version` so nothing
# is ever added to go.mod: staticcheck (correctness/style) and
# govulncheck (known-vulnerability reachability). Network-dependent —
# go run fetches the pinned tool and govulncheck queries the vuln DB —
# so this is deliberately NOT part of `make ci`; CI runs it as a
# separate advisory (continue-on-error) job, and offline runs fail fast
# at the download step without affecting anything else.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
audit:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

ci: build build-cmds build-cross vet fmt-check lint race race-engine bench-smoke serve-smoke clean
