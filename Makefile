GO ?= go
BIN := bin

# COVER_FLOOR is the minimum acceptable total statement coverage for
# `make cover` (the repo sits at ~81% today; the floor leaves a little
# headroom for run-to-run variation, not for new untested code).
COVER_FLOOR := 78.0

.PHONY: verdict examples build test vet race race-generators race-serving determinism-exec fuzz fmt-check ci cover bench-compile bench-compile-smoke bench-exec bench-exec-smoke corpus-check corpus-bless corpus-stats

build:
	$(GO) build ./...

# test runs Tier-1, which includes the repository's analyzer suite:
# internal/analysis's TestRepoIsClean fails with one
# "path:line:col: message [analyzer]" line per finding.
test:
	$(GO) test ./...

# vet runs go vet's full set of checks. Its copylocks check is what stops a
# typed atomic (atomic.Int64, atomic.Pointer[T], …) from being copied — by
# assignment, return, argument or call — into a second location that shares
# no atomicity with the first; the vet subset go test runs leaves copylocks
# out, so Tier-1 alone does not catch such a copy.
vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-generators runs the two POSP generators' packages under the race
# detector at one, two and eight Ps: contour.FocusedContext must return the
# serial recursion's diagram bit for bit at every worker count
# (TestFocusedParallelMatchesSerial), and a scheduling-dependent numbering
# only shows when the workers really interleave.
race-generators:
	$(GO) test -race -cpu 1,2,8 ./internal/contour ./internal/posp

# race-serving runs the traced serving path — the recorder pool, the
# ring's segments that concurrent writers make and publish on first
# write, the span fold and the handlers that share them — and the data
# package, whose row-id vector and table store are process-wide state that
# concurrent runs read and grow, under the race detector at one, two and
# eight Ps, never from the test cache: a recorder handed to the next run
# too early, a segment two writers both publish, or a column published
# before it is drawn, only shows when runs really overlap.
race-serving:
	$(GO) test -race -count=1 -cpu 1,2,8 ./internal/trace ./internal/metrics ./internal/server ./internal/data

# determinism-exec runs the engine and the concrete drivers at one, two
# and eight Ps, never from the test cache: what a vectorized run reports —
# verdict, charged cost, rows, every counter, the learned bounds — must be
# the same at every worker count and on every schedule
# (exec.TestWorkerCountInvariance, core.TestConcreteWorkerCountInvariance),
# and one lucky cached pass must not stand in for that.
determinism-exec:
	$(GO) test -count=1 -cpu 1,2,8 ./internal/exec ./internal/core

# fuzz runs the fuzz target (the SQL parser) for a short, CI-friendly
# budget. Run it by hand with a longer -fuzztime to explore further.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench-compile measures the compile hot path (POSP generation, focused
# compile, raw optimizer DP) with allocation stats, then converts the raw
# output into BENCH_compile.json with speedups against the checked-in
# seed baseline (bench/compile_seed.txt). Both text files are plain
# `go test -bench` output, so `benchstat bench/compile_seed.txt
# bin/bench_compile.txt` works on the same data.
bench-compile:
	@mkdir -p $(BIN)
	$(GO) test -run '^$$' -bench 'BenchmarkFocusedCompile$$|BenchmarkAblationResolution$$' \
		-benchmem -count 3 -timeout 30m . | tee $(BIN)/bench_compile.txt
	$(GO) test -run '^$$' -bench 'BenchmarkOptimizeChain3$$|BenchmarkOptimizeBranch8$$|BenchmarkAbstractCost$$' \
		-benchmem -count 3 ./internal/optimizer | tee -a $(BIN)/bench_compile.txt
	$(GO) build -o $(BIN)/benchjson ./cmd/benchjson
	$(BIN)/benchjson -baseline bench/compile_seed.txt -o BENCH_compile.json \
		-note "compile-path benchmarks; ns_per_op/bytes/allocs are best-of-N" < $(BIN)/bench_compile.txt
	@echo "wrote BENCH_compile.json"

# bench-compile-smoke is the CI variant: single short iterations, no JSON
# emission — it exists to catch benchmarks that no longer compile or
# crash, not to measure.
bench-compile-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFocusedCompile$$' -benchtime 1x -benchmem -timeout 10m .
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize' -benchtime 1x -benchmem ./internal/optimizer

# bench-exec measures executor throughput — the Volcano engine against
# the vectorized engine at 1 and 8 morsel workers on a 400k-row
# three-way join (plus the aggregate pipeline), a Volcano hash-join plan
# aborted at a quarter of its cost (what every aborted bouquet step
# pays), the whole-bouquet run with operator-state reuse on and off, the
# column-index build on a 600k-row lineitem.l_orderkey (and, as the "key" case, the index of a
# key column, which aliases the shared row-id vector), and generating that
# lineitem reading two of its six columns against all six — and converts
# the raw output into BENCH_exec.json with speedups against the checked-in
# seed baselines (bench/exec_seed.txt + bench/bouquet_seed.txt; the index
# and the generator have none).
bench-exec:
	@mkdir -p $(BIN)
	$(GO) test -run '^$$' -bench 'BenchmarkExecJoin|BenchmarkExecAggregate|BenchmarkBudgetedPartialExecution$$' \
		-benchmem -count 3 -timeout 30m ./internal/exec | tee $(BIN)/bench_exec.txt
	$(GO) test -run '^$$' -bench 'BenchmarkBouquetRun$$' \
		-benchmem -count 3 -timeout 30m ./internal/core | tee -a $(BIN)/bench_exec.txt
	$(GO) test -run '^$$' -bench 'BenchmarkIndex$$|BenchmarkGenerate$$' \
		-benchmem -count 3 ./internal/data | tee -a $(BIN)/bench_exec.txt
	$(GO) build -o $(BIN)/benchjson ./cmd/benchjson
	@cat bench/exec_seed.txt bench/bouquet_seed.txt > $(BIN)/exec_baseline.txt
	$(BIN)/benchjson -baseline $(BIN)/exec_baseline.txt -o BENCH_exec.json \
		-note "executor and bouquet-run benchmarks at GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}; ns_per_op/bytes/allocs are best-of-N" < $(BIN)/bench_exec.txt
	@echo "wrote BENCH_exec.json"

# bench-exec-smoke is the CI variant: single short iterations on both
# engines, the budgeted partial run, the multi-step bouquet run, the index
# build and the generator, so a benchmark that no longer compiles or
# crashes fails fast.
bench-exec-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecJoinVolcano$$|BenchmarkExecJoinVector8$$|BenchmarkBudgetedPartialExecution$$' \
		-benchtime 1x -benchmem ./internal/exec
	$(GO) test -run '^$$' -bench 'BenchmarkBouquetRun$$' -benchtime 1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkIndex$$|BenchmarkGenerate$$' -benchtime 1x -benchmem ./internal/data

# cover writes an atomic-mode coverage profile for the whole repo and
# fails when total statement coverage drops below COVER_FLOOR. CI uploads
# the resulting profile as an artifact.
cover:
	@mkdir -p $(BIN)
	$(GO) test -coverprofile=$(BIN)/coverage.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=$(BIN)/coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# CORPUS_DIR holds the golden plan-regression baselines (manifest + JSON
# shards); see internal/corpus and docs/ARCHITECTURE.md.
CORPUS_DIR := testdata/corpus

# corpus-check regenerates every corpus query from the manifest seed and
# semantically diffs the result against the golden baselines, failing with
# classified drift lines (`<shard>: <id>: [<class>] <detail>`). The report
# also lands in $(BIN)/corpus_diff.txt, which CI uploads on failure. All
# 500 queries take about a second on 2 vCPUs, so `make ci` runs the full
# check, not a sample.
corpus-check:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/bouquet corpus check -dir $(CORPUS_DIR) -out $(BIN)/corpus_diff.txt

# corpus-bless regenerates the golden baselines in place after an
# intentional behavioral change. Review the resulting shard diff before
# committing — it is the behavioral change log.
corpus-bless:
	$(GO) run ./cmd/bouquet corpus bless -dir $(CORPUS_DIR)

# corpus-stats prints the composition table and MSO distribution backing
# the EXPERIMENTS.md corpus section.
corpus-stats:
	$(GO) run ./cmd/bouquet corpus stats -dir $(CORPUS_DIR)

# verdict evaluates the ten Table-2 spaces (both drivers, NAT, SEER) and
# fails when any of the paper's headline claims does not hold — the
# scorecard `bouquet verdict` prints, as a gate (~11 s on 2 vCPUs).
verdict:
	$(GO) run ./cmd/bouquet verdict

# examples builds every program under examples/ and runs each one, failing
# on the first non-zero exit. The examples drive the library's public API
# (compile, Bouquet.Run on both substrates) and exit non-zero on any error
# it returns; all six take well under a second.
examples:
	@mkdir -p $(BIN)/examples
	$(GO) build -o $(BIN)/examples/ ./examples/...
	@for ex in $(BIN)/examples/*; do \
		echo "run $$ex"; $$ex > /dev/null || { echo "$$ex exited non-zero"; exit 1; }; \
	done

# ci mirrors the CI workflow's main job exactly — .github/workflows/ci.yml
# invokes this target, so local `make ci` and CI cannot diverge.
ci: fmt-check vet build examples test race race-generators race-serving determinism-exec bench-compile-smoke bench-exec-smoke corpus-check verdict
