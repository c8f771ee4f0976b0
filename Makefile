# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

# Per-target budget for `make fuzz`; raise locally for deeper hunts, e.g.
#   make fuzz FUZZTIME=5m
FUZZTIME ?= 30s

.PHONY: all build test test-invariant lint vet fbvet sarif doc-lint race bench bench-guard bench-json bench-require bench-compare bench-json-replicate bench-require-replicate trace-check fuzz soak lines clean

all: build lint test

build:
	$(GO) build ./...

# test also runs the bench module's tests (bench/ is its own module, so
# ./... does not reach it). Its TestEveryWorkloadEmitsItsMetrics drives the
# srm-hit workload end to end over loopback TCP with span recorders on
# server and client, and requires every declared metric to be present and
# finite — the serving path's end-to-end gate.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# test-invariant rebuilds with the fbinvariant tag, arming the
# internal/invariant checks (capacity, atomic admission, Landlord credits,
# ranking monotonicity) inside every test and fuzz-seed replay.
test-invariant:
	$(GO) test -tags fbinvariant ./...

# lint = the stock vet suite plus fbvet, the repo-specific analyzers
# (mapiter, floateq, sizeunits, ndtaint, errflow, retrybound, pkgdoc, the
# interprocedural concurrency suite lockorder/guardedby/goroleak, and the
# performance checks hotcomplexity and noescape/inline/nobce, which read a
# `go build -gcflags='-m -m -d=ssa/check_bce/debug=1'` sweep of the repo —
# DESIGN.md §11). Both must be clean; findings are suppressed only by a
# justified //fbvet:allow directive, and allowcheck flags directives that
# are unjustified or no longer suppress anything.
lint: vet fbvet

vet:
	$(GO) vet ./...

fbvet:
	$(GO) run ./cmd/fbvet ./...

# sarif emits the fbvet findings as a SARIF 2.1.0 log (fbvet.sarif) and
# structurally validates it — the artifact CI uploads for code scanning.
# Findings do not stop the target (the fbvet target is the gate): the log is
# most useful precisely when there are findings in it. A run that wrote no
# log, or a malformed one, still fails the validation.
sarif:
	$(GO) run ./cmd/fbvet -format=sarif ./... > fbvet.sarif || true
	$(GO) run ./cmd/fbvet -validate fbvet.sarif

# doc-lint runs only the documentation contract: every package must carry a
# package comment (opening "Package <name>" for library packages) stating
# the paper section it implements and its pipeline role.
doc-lint:
	$(GO) run ./cmd/fbvet -run pkgdoc ./...

# race runs the full suite under the race detector, including the dedicated
# concurrency tests in internal/srm and internal/store.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-guard runs the no-op-tracer and span-telemetry overhead
# microbenchmarks and gates their exact alloc counts: the /baseline (no
# tracer) and /nop (NopTracer installed) variants of the OptCacheSelect and
# Landlord hot loops must report identical allocs/op — tracing must cost
# nothing when off — and the disabled, enabled and promoted span paths must
# report 0 allocs/op. -benchtime=100x keeps it fast enough to gate CI; ns/op
# on shared machines is too noisy to gate, so compare it by eye or with
# benchstat on a quiet machine.
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkOptCacheSelect' -benchmem -benchtime=100x ./internal/core/ > bench-guard.txt
	$(GO) test -run '^$$' -bench 'BenchmarkLandlord$$' -benchmem -benchtime=100x ./internal/policy/landlord/ >> bench-guard.txt
	awk '/baseline|\/nop/ { print; allocs[++n]=$$(NF-1) } \
	     END { if (n != 4 || allocs[1] != allocs[2] || allocs[3] != allocs[4]) { \
	             print "FAIL: nop-tracer variant allocates more than baseline"; exit 1 } }' bench-guard.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSpan(Disabled|Enabled|Promoted)' -benchmem -benchtime=100x ./internal/obs/span/ > span-bench.txt
	awk '/^BenchmarkSpan/ { print; allocs[++n]=$$(NF-1) } \
	     END { if (n != 3 || allocs[1] != 0 || allocs[2] != 0 || allocs[3] != 0) { \
	             print "FAIL: span recording allocates in steady state"; exit 1 } }' span-bench.txt

# One benchmark pipeline per checked-in BENCH file: the go-bench run piped
# into benchjson, whose -require flags make a run that silently lost an
# expected benchmark fail instead of writing a thin file. Each target below
# appends only its output or baseline flags.
BENCH_CORE = $(GO) test -run '^$$' -bench 'OptCacheSelect|BenchmarkLandlord|RunEvents|Run(OptFileBundle|Landlord)1000' \
	-benchmem -benchtime=100x ./internal/core/ ./internal/policy/landlord/ ./internal/simulate/ \
	| $(GO) run ./cmd/benchjson -require OptCacheSelect -require Landlord \
		-require RunEvents -require RunOptFileBundle1000
BENCH_REPLICATE = $(GO) test -run '^$$' -bench 'BenchmarkPlan|BenchmarkPredictorObserve|BenchmarkReplan' \
	-benchmem -benchtime=100x ./internal/replicate/ \
	| $(GO) run ./cmd/benchjson -require Plan -require PredictorObserve -require Replan

# bench-json runs the core/landlord/simulate benchmarks and converts the
# text output into schema-versioned JSON (BENCH_core.json) via benchjson —
# one point of the benchmark trajectory.
bench-json:
	$(BENCH_CORE) -out BENCH_core.json
	@echo wrote BENCH_core.json

# bench-require re-runs the bench-json benchmarks and compares against the
# checked-in BENCH_core.json: any lost benchmark or allocs/op increase
# beyond 1% fails (the hot loops are near-deterministic; the 1% absorbs
# ±1-alloc amortized-map-growth jitter at -benchtime=100x); ns/op may
# drift up to NSRATIO× before failing (shared runners are noisy — the
# alloc gate is the load-bearing one). Regenerate the baseline with
# `make bench-json` when a perf change is intentional.
NSRATIO ?= 10
bench-require:
	$(BENCH_CORE) -baseline BENCH_core.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 -out /dev/null

# bench-compare re-runs the bench-json benchmarks against the checked-in
# baseline and writes the before/after table to bench-compare.md — the
# artifact CI uploads so perf deltas are reviewable in the PR. The table is
# written even when the comparison regresses (the exit code still fails the
# step); NSRATIO gates timing exactly as in bench-require.
bench-compare:
	$(BENCH_CORE) -baseline BENCH_core.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 \
		-markdown bench-compare.md -out /dev/null
	@echo wrote bench-compare.md

# bench-json-replicate snapshots the replication planner's benchmarks
# (static Plan, per-arrival predictor fold, full Replan epoch) into
# BENCH_replicate.json — the planner runs inside the event loop every epoch,
# so its cost curve is gated like the core select loops.
bench-json-replicate:
	$(BENCH_REPLICATE) -out BENCH_replicate.json
	@echo wrote BENCH_replicate.json

# bench-require-replicate compares a fresh run against the checked-in
# BENCH_replicate.json under the same thresholds as bench-require.
bench-require-replicate:
	$(BENCH_REPLICATE) -baseline BENCH_replicate.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 -out /dev/null

# trace-check replays the golden event trace through the offline validator:
# reconstructed residency must satisfy the cache invariants at the golden
# workload's capacity (7 bytes).
trace-check:
	$(GO) run ./cmd/fbtrace validate -capacity 7 internal/simulate/testdata/golden_trace.jsonl
	$(GO) run ./cmd/fbtrace validate internal/simulate/testdata/golden_replica_trace.jsonl

# fuzz gives each harness FUZZTIME of coverage-guided search on top of the
# checked-in corpora (testdata/fuzz/...). The Landlord target runs with
# invariants armed so every generated input also probes the in-line checks.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSelectFastMatchesReference -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSelectHalfBound -fuzztime $(FUZZTIME) ./internal/solver/
	$(GO) test -run '^$$' -fuzz FuzzLandlordInvariants -fuzztime $(FUZZTIME) -tags fbinvariant ./internal/policy/landlord/

# soak replays the fault-injection scenarios with invariants armed: the
# multi-policy fault soak, the churn+correlated generated-scenario soak with
# the epoch re-planner running, and the determinism and bit-identity gates
# for the resilience and replication layers. It then races the SRM's
# unlocked store moves against its sequential model (the policy) under the
# race detector, five times with fresh seeds.
soak:
	$(GO) test -tags fbinvariant ./internal/simulate/ -run 'TestFaultSoak|TestFaultSoakChurnCorrelated|TestFaultsDeterministic|TestFaultsZeroScenarioBitIdentical|TestReplicationDeterministic|TestReplicationZeroBudgetBitIdentical' -v
	$(GO) test -race -tags fbinvariant -count 5 ./internal/srm/ -run 'TestStoreModelConcurrent' -v

# lines prints the non-test Go line count outside bench/ — the per-change
# size figure ROADMAP.md tracks.
lines:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test.go$$' | xargs cat | wc -l

clean:
	$(GO) clean ./...
