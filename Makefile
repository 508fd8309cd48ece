# Development targets; CI (.github/workflows/ci.yml) runs `make check`'s
# steps verbatim.

.PHONY: check build test vet vet-json race dbg notel serve-smoke dist-smoke fuzz fuzz-checkpoint fuzz-selffuzz fuzz-all bench bench3 benchcmp bench-smoke bench-all results

check: vet build test race dbg notel

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

# Telemetry compiled out (telemetry.New returns nil): the whole tree must
# still build, and the suite must pass with every instrument on the nil
# fast path. The default build/test targets cover the tag-off state.
notel:
	go build -tags bigmapnotel ./...
	go test -tags bigmapnotel ./...

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

# Hot-path benchmark sweep (word kernels, batched exec loop, Fig. 3 map ops)
# with allocation counts, emitted as the machine-readable BENCH_2.json.
BENCH_PKGS    := ./internal/core/ ./internal/executor/ .
BENCH_FILTER  := 'Kernel|ExecLoop|Fig3MapOps'
BENCH_TIME    ?= 200x

bench:
	go test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime=$(BENCH_TIME) $(BENCH_PKGS) | tee bench.out
	go run ./cmd/bigmap-bench benchjson -o BENCH_2.json < bench.out
	@rm -f bench.out

# Same sweep emitted as BENCH_3.json — the selective-tracing/batched-exec
# generation. The filter already matches BenchmarkExecLoopSelective/Batched,
# so the new fast paths land in the artifact alongside the shared baselines;
# `make benchcmp` then gates the shared names against BENCH_2.json.
bench3:
	go test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime=$(BENCH_TIME) $(BENCH_PKGS) | tee bench.out
	go run ./cmd/bigmap-bench benchjson -o BENCH_3.json < bench.out
	@rm -f bench.out

# No-regression gate over the checked-in artifacts: every benchmark BENCH_2
# and BENCH_3 share must be within tolerance. Both files were generated on
# the same machine, so the ratio is meaningful where raw CI timings are not.
benchcmp:
	go run ./cmd/bigmap-bench benchcmp BENCH_2.json BENCH_3.json

# CI smoke: same sweep at -benchtime=10x, report discarded after parsing —
# proves every benchmark still runs and the JSON pipeline still parses.
bench-smoke:
	go test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime=10x $(BENCH_PKGS) | go run ./cmd/bigmap-bench benchjson -o /dev/null

# Every benchmark in the repo, one iteration (sanity, not measurement).
bench-all:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# Regenerate every reproducible paper artifact under results/ from the
# declarative grid (experiments.json). Deterministic: consecutive runs are
# byte-identical; schema or header drift fails the run.
results:
	go run ./cmd/bigmap-bench grid -config experiments.json -out results
