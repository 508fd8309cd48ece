#!/usr/bin/env bash
# Builds the benchmark binary from this checkout and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload bigmap-steady --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare PARENT_RESULTS_DIR CANDIDATE_RESULTS_DIR
#
# Everything the build and the runs write (Go build cache, binary, temporary
# campaign directories, result files) stays under benchmark/.bench_build/;
# set BENCH_RESULTS to put the result files elsewhere. The build needs the
# module at the checkout root; without it the script fails before anything is
# measured.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$here/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false TMPDIR="$build/tmp"
# The go command keeps its environment file and usage counters under the
# user configuration directory; keep those in the checkout as well.
export XDG_CONFIG_HOME="$build/config"
if [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
else
	BENCH_COMMIT=unknown
fi
export BENCH_COMMIT BENCH_RESULTS="${BENCH_RESULTS:-$build/results}"

(cd "$here" && go build -o "$build/bigmap-benchmark" .) >&2
if [ "${1:-}" = compare ]; then
	shift
	set -- compare "$root/BENCHMARK.json" "$@"
fi
exec "$build/bigmap-benchmark" "$@"
