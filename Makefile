# Build/verify targets for the SAGA/PISA reproduction. `make verify` is
# the tier-1 gate; `make bench-smoke` is the allocation-regression gate
# for the scheduling hot path (see EXPERIMENTS.md, "Hot-path memory
# discipline"); `make docs-lint` keeps every internal package
# documented. Performance numbers come from one place, the same-session
# ledger `bash bench/run.sh` writes (bench/README.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test test-race verify bench-smoke bench-pisa bench-scale docs-lint coord-smoke serve-smoke chaos-smoke bench-serve fuzz-short cover examples-smoke

all: verify

build:
	$(GO) build ./...

# vet also covers the nested benchmark module (bench/go.mod): `go build
# ./...` never compiles it, so an exported-API change that breaks
# bench/ fails here instead of at benchmark time. Last, every Go file in
# the tree, bench/ included, must be gofmt-clean: `gofmt -l .` lists
# the ones that are not, and any listing fails the target.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: run gofmt -w on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# test-race runs the race detector over every package that spawns
# goroutines: the worker pool, the parallel PISA/GA chains, the shared
# scheduler scratch/cache machinery they reuse, the sweep drivers that
# compose them, the checkpoint store every runner worker and every
# coordinator delivery commits into concurrently, and the
# coordinator/worker protocol (heartbeat goroutines, concurrent leases,
# the in-memory collector). The parallel
# paths are deterministic by construction (pre-split RNG streams,
# per-chain scratches, canonical merge), and this is the gate that keeps
# the construction honest.
test-race:
	$(GO) test -race ./internal/runner ./internal/core ./internal/scheduler ./internal/experiments ./internal/serialize ./internal/coord/... ./internal/serve ./internal/httpx

# verify is the tier-1 check: everything builds and passes go vet,
# the concurrent packages pass under the race detector, every package
# stays documented, every example program runs to a zero exit, the hot
# path still schedules without allocating, the PISA inner loop keeps its
# speedup and parallel-run gates, the scale-tier data plane keeps its
# throughput, memory, and bit-identity floors (bench-scale), the
# process-level coordinator smoke test survives a worker SIGKILL
# byte-identically, the scheduling daemon answers byte-identically to
# the library and drains gracefully (serve-smoke + bench-serve), the
# distributed-dispatch chaos drill survives a worker SIGKILL mid-request
# (chaos-smoke), the ingestion fuzzers survive a bounded run, and, last,
# every test passes once with per-package coverage above the
# COVER_BASELINE floors (cover is the one full run of the suite; `make
# test` is the same run without coverage). Each step is timed; the
# first failure stops the run, and the summary of seconds per step is
# printed either way.
verify:
	@start=$$(date +%s%N); summary=; \
	for step in build vet test-race docs-lint examples-smoke bench-smoke bench-pisa bench-scale \
		coord-smoke serve-smoke chaos-smoke bench-serve fuzz-short cover; do \
		t0=$$(date +%s%N); $(MAKE) --no-print-directory $$step; status=$$?; \
		summary="$$summary$$(awk -v s=$$step -v ns=$$(($$(date +%s%N) - t0)) 'BEGIN { printf "verify: %-15s %6.1f s", s, ns / 1e9 }')\n"; \
		if [ $$status -ne 0 ]; then printf "$$summary"; echo "verify: $$step failed"; exit $$status; fi; \
	done; \
	printf "$$summary"; \
	awk -v ns=$$(($$(date +%s%N) - start)) 'BEGIN { printf "verify: %-15s %6.1f s\n", "total", ns / 1e9 }'

# coord-smoke is the process-level fault drill for the sweep
# coordinator: it builds the saga binary, starts `saga coordinate` plus
# three `saga worker -coordinator` processes on a real Fig 4 sweep,
# SIGKILLs one worker mid-lease, and asserts the checkpoint store the
# coordinator sealed on exit is byte-identical to the sealed store of
# the sequential single-process reference.
# The in-process fault-injection suites in internal/coord run on every
# plain `make test`; this target exercises the same invariant across
# real process and socket boundaries.
coord-smoke:
	COORD_SMOKE=1 $(GO) test -run TestCoordSmokeE2E -count 1 -v -timeout 300s ./internal/coord/

# serve-smoke is the process-level drill for the scheduling daemon: it
# builds the saga binary, boots a real `saga serve`, fires concurrent
# schedule/portfolio/robustness requests (plus one malformed, refused
# without collateral), asserts every response byte-identical to direct
# in-process library calls, then SIGTERMs the daemon mid-request and
# checks the graceful drain: the in-flight request completes, new
# connections are refused, the process exits 0.
serve-smoke:
	SERVE_SMOKE=1 $(GO) test -run TestServeSmokeE2E -count 1 -v -timeout 300s ./internal/serve/

# chaos-smoke is the process-level drill for the distributed dispatch
# path, two process kinds: a real `saga serve -token T` daemon farming
# concurrent portfolio/robustness requests to three `saga worker
# -coordinator <daemon>/hub -token T -persist` processes attached
# beforehand. Mid-request one worker is SIGKILLed (its leases expire
# and survivors reclaim the cells). Every response must be
# byte-identical to in-process local execution with zero degradations,
# and SIGTERM must drain the daemon and the surviving workers to clean
# exit 0.
chaos-smoke:
	CHAOS_SMOKE=1 $(GO) test -run TestChaosSmokeE2E -count 1 -v -timeout 600s ./internal/serve/

# bench-serve is the daemon load gate: 8 concurrent clients against a
# live server, every response byte-verified, client-observed p50/p99
# reported and sanity-bounded; plus the wire path's allocation gates
# (TestScheduleHitAllocs and TestScheduleMissAllocs: testing.AllocsPerRun
# of cache-hit and cache-miss POST /v1/schedule, each path bounded at
# its measured value + 2). The measured values are in EXPERIMENTS.md,
# "The scheduling daemon load test" and "Cold decode (serve_cold)".
bench-serve:
	SERVE_BENCH_GATE=1 $(GO) test -run 'TestServeLoadGate|TestScheduleHitAllocs|TestScheduleMissAllocs' -count 1 -v -timeout 300s ./internal/serve/

# fuzz-short runs the daemon's ingestion fuzzers for a bounded slice of
# CI time, 10 s each. FuzzScanner holds internal/jsonscan to json.Valid,
# json.Compact and the stdlib's string decoding; the next three are
# differential against the reflective encoding/json decoders the
# hand-written codecs replaced (kept in _test.go files as oracles): same
# accept/reject, reflect.DeepEqual values. FuzzParse additionally drives
# Parse → ToTaskGraph → ToNetwork → Validate → Marshal round trip (must
# never panic), seeded from the fixtures in internal/wfc/testdata/.
# FuzzIter feeds the checkpoint store reader sealed, live, concatenated
# and torn stores, the one-object JSON layout of earlier releases (which
# it refuses) and bytes that are none of these: it never panics, and
# Checkpoint.Load returns exactly what Iter yields.
fuzz-short:
	$(GO) test -fuzz FuzzScanner -fuzztime 10s -run '^$$' ./internal/jsonscan/
	$(GO) test -fuzz FuzzUnmarshalInstance -fuzztime 10s -run '^$$' ./internal/serialize/
	$(GO) test -fuzz FuzzParse -fuzztime 10s -run '^$$' ./internal/wfc/
	$(GO) test -fuzz FuzzScheduleEnvelope -fuzztime 10s -run '^$$' ./internal/serve/
	$(GO) test -fuzz FuzzIter -fuzztime 10s -run '^$$' ./internal/serialize/

# cover enforces the per-package statement-coverage floors in
# COVER_BASELINE: `go test -cover` over the whole module, then every
# listed package must meet its floor. Keeps the serve/coord protocol
# surfaces from growing untested handlers.
cover:
	@$(GO) test -cover ./... > .cover.tmp; status=$$?; cat .cover.tmp; \
	if [ $$status -ne 0 ]; then rm -f .cover.tmp; exit $$status; fi; \
	awk 'NR==FNR { if ($$0 !~ /^#/ && NF==2) floor[$$1]=$$2; next } \
		($$2 in floor) && /coverage:/ { seen[$$2]=1; pct=$$0; sub(/.*coverage: /,"",pct); sub(/%.*/,"",pct); \
			if (pct+0 < floor[$$2]+0) { printf "cover: %s at %s%% — below the %s%% floor in COVER_BASELINE\n", $$2, pct, floor[$$2]; bad=1 } \
			else { printf "cover: %s at %s%% (floor %s%%)\n", $$2, pct, floor[$$2] } } \
		END { for (p in floor) if (!(p in seen)) { printf "cover: no coverage line for %s\n", p; bad=1 }; exit bad }' \
		COVER_BASELINE .cover.tmp; status=$$?; rm -f .cover.tmp; exit $$status

# examples-smoke runs every program under examples/ and fails on the
# first non-zero exit. `go build ./...` compiles them; this keeps them
# working. About a second once the build cache is warm.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# docs-lint fails if any internal/* package lacks a package comment
# ("// Package <name> ..."). Every package must state its role and key
# invariant at the top — see ARCHITECTURE.md for the layer map.
docs-lint:
	@fail=0; for d in internal/*/; do \
		pkg=$$(basename $$d); \
		grep -q "^// Package $$pkg " $$d*.go || { echo "docs-lint: internal/$$pkg has no package comment"; fail=1; }; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs-lint: all internal packages documented"

# bench-smoke runs the hot-path benchmark just long enough to surface an
# allocation regression loudly: the AllocsPerRun gate must stay at 0 for
# every list scheduler, and the -benchmem columns must read 0 allocs/op
# once warm. It finishes in a few seconds. The gate test also runs in
# the plain suite; it keeps this step because the benchmark ledger's
# schedulers.allocs_per_op_max row names it as the gate. Per-scheduler
# timings are the ledger's schedulers.<Name>_mid_us rows.
bench-smoke:
	$(GO) test -run 'TestScheduleScratchZeroAlloc' -count 1 ./internal/schedulers/
	$(GO) test -run '^$$' -bench BenchmarkScheduleHotPath -benchmem -benchtime 100x .

# bench-pisa is the PISA inner-loop gate: the enforced ≥1.3x
# iteration-speedup ratio check and the parallel-run speedup check
# (TestPISAIterationMemoizationGate / TestPISAParallelSpeedupGate, opted
# in via PISA_BENCH_GATE=1; the parallel gate takes the median ratio of
# seven back-to-back sequential/parallel pairs against a floor scaled to
# the worker count — 1.2x on 2 cores, 1.6x from 4 — and self-skips on
# single-core hosts where wall-clock scaling is physically impossible),
# and one -benchtime=1x pass over the benchmarks so they cannot rot. The
# suites these gates rest on run in the plain suite: core's differential
# table (internal/core/differential_test.go: annealer and GA == their
# copy-and-rebuild references per mode, pair, width, scratch reuse and
# GOMAXPROCS=1), the apply→undo round trip, the
# cache-invalidation properties behind rank memoization, and the
# 0 allocs/op gate for the steady-state accept/reject cycle.
# Part of `make verify`.
bench-pisa:
	PISA_BENCH_GATE=1 $(GO) test -run 'TestPISAIterationMemoizationGate|TestPISAParallelSpeedupGate' -count 1 -v ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPISAIteration|BenchmarkPISACandidateGen|BenchmarkPISARun|BenchmarkGAAdversarial' -benchmem -benchtime 1x ./internal/core/

# bench-scale is the scale-tier regression gate, every step opted in via
# SCALE_BENCH_GATE=1: bit-identity of the edge-sparse Tables against the
# dense test reference on the 10k-task scale_layered instance, four-lane
# avg-comm fill included (the property suites up to 1k tasks and the
# 10k-deep chain tests run in the plain suite), the 10k rows of the
# placement-kernel oracles (the bound-skipping EFT scan vs probing every
# node, the heap priority order vs the frontier scan, on
# scale_layered_10k and scale_chains_10k), FLB at 10k held bit for bit
# to its per-node reference (two-node ready times vs one predecessor
# walk per task, node and step), the 10k schedule digests of the eight
# scale_schedule schedulers (TestScaleDigestGolden), the SHA-256 of the
# 10k scale instances' bytes (TestScaleDatasetGolden), then
# TestScaleBenchGate enforcing HEFT throughput floors at the 1k/5k/10k
# tiers and the O(|V|+|E|+|D|·|V|) table-memory bound with edge-sparse
# link storage, and TestScaleTierSchedulesValid at the 10k tier (every
# registered scheduler through schedule.Validate and a Strict-mode
# sim.Execute replay). Part of `make verify`.
bench-scale:
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestSparseTablesMatchDense10k' -count 1 ./internal/graph/
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestBestEFTNodeMatchesUnskipped' -count 1 ./internal/schedule/
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestTopoOrderByPriorityMatchesScan' -count 1 ./internal/scheduler/
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestFLBMatchesPerNodeReference10k|TestScaleDigestGolden' -count 1 ./internal/schedulers/
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestScaleDatasetGolden' -count 1 ./internal/serialize/
	SCALE_BENCH_GATE=1 $(GO) test -run 'TestScaleBenchGate|TestScaleTierSchedulesValid' -count 1 -v -timeout 300s .
