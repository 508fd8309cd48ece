#!/usr/bin/env bash
# Regression gate: runs the repository benchmark on a base commit and on
# this tree, on the same machine in one session, and judges the candidate
# with the benchmark's own compare rules and BENCHMARK.json's bounds.
#
#   scripts/bench-gate.sh BASE        # e.g. HEAD^, or a PR's merge-base
#
# BASE is checked out into a temporary git worktree (removed on exit). For
# each seed both trees run every workload (`benchmark/run.sh all`) into
# their own results directory, the side that goes first alternating by
# seed, so compare sees back-to-back same-seed pairs. The exit status is
# compare's: 0 when no end-to-end metric regressed beyond its bound and no
# larger share of operations failed, non-zero otherwise. A run that fails
# outright (a broken build, a failed output check) fails the gate before
# compare. About 5 minutes on a 2-vCPU machine, most of it the 20 runs.
set -euo pipefail

# Ten pairs is the fewest compare accepts; two seconds per workload keeps
# the gate to minutes while every workload still reaches its steady state.
readonly SEEDS=10
readonly SECONDS_PER_RUN=2

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
parent="$tmp/parent"
trap 'rm -rf "$tmp"; git -C "$root" worktree prune' EXIT
git -C "$root" worktree add --quiet --detach "$parent" "$base"
mkdir -p "$tmp/results/parent" "$tmp/results/candidate"

# run SIDE TREE SEED: one pass over every workload, its output kept in a
# log that is printed only if the pass fails.
run() {
	local log="$tmp/$1-$3.log"
	if ! BENCH_RESULTS="$tmp/results/$1" bash "$2/benchmark/run.sh" all \
		--seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 >"$log" 2>&1; then
		cat "$log" >&2
		echo "bench-gate: $1 run of seed $3 failed" >&2
		exit 1
	fi
}

echo "bench-gate: parent $base, candidate $root, $SEEDS seeds" >&2
for seed in $(seq 1 "$SEEDS"); do
	start=$(date +%s)
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run candidate "$root" "$seed"
	else
		run candidate "$root" "$seed"
		run parent "$parent" "$seed"
	fi
	echo "bench-gate: seed $seed done in $(($(date +%s) - start))s" >&2
done

bash "$root/benchmark/run.sh" compare "$tmp/results/parent" "$tmp/results/candidate"
