# Development targets; CI (.github/workflows/ci.yml) runs `make check`'s
# steps verbatim, and scripts/bench-gate.sh as its own job.

.PHONY: check fmt build test vet vet-json race dbg serve-smoke dist-smoke fuzz fuzz-checkpoint fuzz-selffuzz fuzz-all bench bench-smoke bench-all bench-gate results

check: fmt vet build test race dbg

# Formatting: gofmt must have nothing to rewrite anywhere in the tree.
fmt:
	test -z "$$(gofmt -l .)"

# Static analysis: the stock go vet suite, then the repo's own invariant
# checkers (cmd/bigmap-vet: determinism, kernelparity, codecsymmetry,
# lockcheck, errdrop, allocfree). Any unsuppressed diagnostic fails the
# build; audited sites (//bigmap:<directive> <why>) are counted but pass.
vet:
	go vet ./...
	go run ./cmd/bigmap-vet ./...

# Machine-readable variant of the bigmap-vet run: one JSON report (schema
# internal/analysis.ReportVersion) written to vet-report.json, audited sites
# included. Exit status matches `make vet`'s bigmap-vet step, so this both
# gates and archives — CI uploads the report as an artifact.
vet-json:
	go run ./cmd/bigmap-vet -json ./... > vet-report.json; \
	status=$$?; \
	go run ./cmd/bigmap-vet -summarize vet-report.json; \
	exit $$status

build:
	go build ./...

test:
	go test ./...

# Race detector over the whole tree. -short skips the multi-second
# campaign-scale bench runs (40-50x slower under race, no goroutines of
# their own); every package with real concurrency runs in full.
race:
	go test -race -short -timeout 15m ./...

# Runtime invariant assertions (internal/core/dbg_assert.go) compiled in:
# the core, fuzzer, dist, checkpoint and parallel tests run with used_key /
# high-water-mark / bijection / virgin-coverage checks live.
dbg:
	go test -tags bigmapdbg ./internal/core/ ./internal/fuzzer/ ./internal/dist/ ./internal/checkpoint/ ./internal/parallel/

# The fuzzing-as-a-service control plane, driven end to end over real HTTP:
# submit, pause/resume/cancel, chaos-kill a worker mid-run and assert
# auto-recovery, SIGTERM drain, restart-and-resume. Plus the package's race
# suite (also covered by `make race`). Needs curl and jq.
serve-smoke:
	go test -race ./internal/serve/
	./scripts/serve-smoke.sh

# The distributed campaign layer, driven end to end over real HTTP through
# the real binaries: start bigmap-corpusd, join two bigmap-fuzz workers,
# assert dedup and delta counters, kill a worker mid-sync and rejoin it,
# verify the ledger, restart the daemon and assert ledger-replay recovery.
# Plus the layer's race suites. Needs curl and jq.
dist-smoke:
	go test -race ./internal/dist/ ./internal/corpusd/
	./scripts/dist-smoke.sh

# Per-target fuzzing budget for every fuzz* target below.
FUZZTIME ?= 30s

# Short native-fuzzing smoke of the interpreter safety contract.
fuzz:
	go test -fuzz=FuzzInterp -fuzztime=$(FUZZTIME) ./internal/target/

# Checkpoint-codec robustness: decoders must reject arbitrary corruption
# without panicking, and accepted inputs must round-trip.
fuzz-checkpoint:
	go test -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint/

# The adversarial self-fuzzing suite's flagship differential: AFL-scheme vs
# BigMap semantics under arbitrary op programs (DESIGN §12).
fuzz-selffuzz:
	go test -fuzz=FuzzSchemeEquivalence -fuzztime=$(FUZZTIME) ./internal/selffuzz/

# Every fuzz target in the tree, one FUZZTIME session each (Go permits a
# single -fuzz pattern per invocation, so the script discovers and loops).
fuzz-all:
	FUZZTIME=$(FUZZTIME) ./scripts/fuzz-all.sh

# Hot-path benchmark sweep (word kernels, batched exec loop, havoc and
# splice, whole fuzz rounds on the bigmap-steady shape, Fig. 3 map ops) with
# allocation counts, printed as `go test -bench` text.
BENCH_PKGS    := ./internal/core/ ./internal/executor/ ./internal/mutation/ ./internal/fuzzer/ .
BENCH_FILTER  := 'Kernel|ExecLoop|Havoc|Step|Fig3MapOps'
BENCH_TIME    ?= 200x

bench:
	go test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime=$(BENCH_TIME) $(BENCH_PKGS)

# CI smoke: same sweep at -benchtime=10x — proves every benchmark still runs.
bench-smoke:
	go test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime=10x $(BENCH_PKGS)

# Every benchmark in the repo, one iteration (sanity, not measurement).
bench-all:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# Regression gate: the repository benchmark (benchmark/run.sh) on the
# parent commit and on this tree, alternating same-seed pairs on one
# machine, judged by `run.sh compare` with BENCHMARK.json's bounds. About
# 5 minutes. CI runs the script against a pull request's merge-base.
bench-gate:
	./scripts/bench-gate.sh HEAD^

# Regenerate every reproducible paper artifact under results/ from the
# declarative grid (experiments.json). Deterministic: consecutive runs are
# byte-identical; schema or header drift fails the run.
results:
	go run ./cmd/bigmap-bench grid -config experiments.json -out results
