#!/bin/sh
# End-to-end smoke test for the distributed campaign layer, driven through
# the real binaries the way an operator would run them:
#
#   1. start bigmap-corpusd with a persistent state dir
#   2. join two bigmap-fuzz workers to one campaign and let them sync
#   3. assert the service saw both workers, deduplicated overlapping
#      inputs and accepted virgin-map deltas (dedup + delta counters), that
#      the crash list is an array and that GET /stats agrees with the
#      campaign's own stats
#   4. kill one worker mid-sync, assert nothing already deduplicated was
#      lost, then rejoin it under the same name and assert it resumes its
#      sequence chain and the campaign keeps growing
#   5. verify the hash-chain ledger endpoint answers and is non-trivial
#   6. restart the daemon over the same state dir and assert ledger-replay
#      recovery reproduces the exact same stats, and that the campaign
#      directory holds only its three files (no per-input or per-crash
#      files: the ledger record carries the bodies)
#
# Requires: go, curl, jq.
set -eu

ADDR="${ADDR:-127.0.0.1:8798}"
BASE="http://$ADDR"
DIR="$(mktemp -d)"
CORPUSD="$DIR/bigmap-corpusd"
FUZZ="$DIR/bigmap-fuzz"
LOG="$DIR/corpusd.log"
PID=""
WPID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    [ -n "$WPID" ] && kill -9 "$WPID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

die() {
    echo "FAIL: $*" >&2
    echo "--- corpusd log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

start_daemon() {
    "$CORPUSD" -addr "$ADDR" -dir "$DIR/state" >>"$LOG" 2>&1 &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$PID" 2>/dev/null || die "corpusd died during startup"
        sleep 0.1
    done
    die "corpusd never became healthy"
}

stat_of() {
    curl -fsS "$BASE/v1/campaigns/smoke" | jq -r ".$1"
}

# Same tiny campaign for every worker: identical bench, map and seeds, so the
# workers' synthesized seed corpora overlap and the dedup counters must move.
# WORKER_FLAGS is spelled out (not a function) so the kill-mid-sync step can
# background the binary itself — backgrounding a function would fork a
# subshell, and kill -9 on the subshell PID leaves the binary running.
WORKER_FLAGS="-bench zlib -scale 0.02 -map 4k -seed 9 -sync-every 2000"

run_worker() {
    name="$1" execs="$2"
    # shellcheck disable=SC2086
    "$FUZZ" $WORKER_FLAGS -execs "$execs" \
        -join "$BASE" -campaign smoke -worker "$name"
}

echo "=== build"
go build -o "$CORPUSD" ./cmd/bigmap-corpusd
go build -o "$FUZZ" ./cmd/bigmap-fuzz

echo "=== start corpusd"
start_daemon

echo "=== join two workers, let them sync to completion"
run_worker w1 20000 >"$DIR/w1.log" 2>&1 || die "worker w1 failed (see $DIR/w1.log)"
run_worker w2 20000 >"$DIR/w2.log" 2>&1 || die "worker w2 failed (see $DIR/w2.log)"

echo "=== assert dedup + delta counters"
[ "$(stat_of workers)" -eq 2 ] || die "workers = $(stat_of workers), want 2"
[ "$(stat_of inputs)" -gt 0 ] || die "no inputs stored"
[ "$(stat_of batches)" -ge 2 ] || die "batches = $(stat_of batches), want >= 2"
[ "$(stat_of dedup_hits)" -gt 0 ] || die "dedup_hits = 0: overlapping seeds were not deduplicated"
[ "$(stat_of delta_words)" -gt 0 ] || die "delta_words = 0: no coverage deltas accepted"
[ "$(stat_of union_edges)" -gt 0 ] || die "union_edges = 0: no campaign-wide coverage"
echo "    $(curl -fsS "$BASE/v1/campaigns/smoke" | jq -c '{workers, inputs, batches, dedup_hits, delta_words, union_edges}')"
curl -fsS "$BASE/v1/campaigns/smoke/crashes" | jq -e 'type == "array"' >/dev/null \
    || die "crashes is not an array"
ALL_UNION=$(curl -fsS "$BASE/stats" | jq -r '.smoke.union_edges')
[ "$ALL_UNION" = "$(stat_of union_edges)" ] \
    || die "GET /stats has smoke.union_edges = $ALL_UNION, the campaign says $(stat_of union_edges)"

echo "=== kill worker w3 mid-sync"
INPUTS_BEFORE=$(stat_of inputs)
UNION_BEFORE=$(stat_of union_edges)
# shellcheck disable=SC2086
"$FUZZ" $WORKER_FLAGS -execs 2000000 \
    -join "$BASE" -campaign smoke -worker w3 >"$DIR/w3.log" 2>&1 &
WPID=$!
# Wait until w3's batches start landing, then kill it uncleanly.
for _ in $(seq 1 300); do
    [ "$(stat_of workers)" -eq 3 ] && [ "$(stat_of batches)" -ge 4 ] && break
    kill -0 "$WPID" 2>/dev/null || die "worker w3 exited before it could be killed"
    sleep 0.1
done
[ "$(stat_of workers)" -eq 3 ] || die "w3 never joined"
kill -9 "$WPID" 2>/dev/null || true
wait "$WPID" 2>/dev/null || true
WPID=""

echo "=== assert nothing deduplicated was lost"
[ "$(stat_of inputs)" -ge "$INPUTS_BEFORE" ] || die "inputs shrank after worker death"
[ "$(stat_of union_edges)" -ge "$UNION_BEFORE" ] || die "union shrank after worker death"

echo "=== rejoin w3 under the same name, assert sequence-chain resume"
BATCHES_BEFORE=$(stat_of batches)
run_worker w3 20000 >"$DIR/w3b.log" 2>&1 || die "rejoined worker w3 failed (see $DIR/w3b.log)"
[ "$(stat_of workers)" -eq 3 ] || die "rejoin created a new worker instead of resuming"
[ "$(stat_of batches)" -gt "$BATCHES_BEFORE" ] || die "rejoined worker pushed no batches"
echo "    $(curl -fsS "$BASE/v1/campaigns/smoke" | jq -c '{workers, inputs, batches, union_edges}')"

echo "=== verify the hash-chain ledger"
LEDGER_LEN=$(curl -fsS "$BASE/v1/campaigns/smoke/ledger" | jq 'length')
[ "$LEDGER_LEN" -ge "$(stat_of batches)" ] || die "ledger has $LEDGER_LEN records, fewer than accepted batches"

echo "=== restart corpusd, assert ledger-replay recovery"
STATS_BEFORE=$(curl -fsS "$BASE/v1/campaigns/smoke")
kill -TERM "$PID"
n=0
while kill -0 "$PID" 2>/dev/null; do
    n=$((n + 1))
    [ "$n" -gt 100 ] && die "corpusd did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID" 2>/dev/null && RC=0 || RC=$?
PID=""
[ "$RC" -eq 0 ] || die "corpusd exited $RC on SIGTERM, want 0"
start_daemon
STATS_AFTER=$(curl -fsS "$BASE/v1/campaigns/smoke")
[ "$STATS_BEFORE" = "$STATS_AFTER" ] || die "recovery drifted: before=$STATS_BEFORE after=$STATS_AFTER"
echo "    recovered: $(echo "$STATS_AFTER" | jq -c '{workers, inputs, batches, union_edges}')"

echo "=== assert one durable file per push"
FILES=$(cd "$DIR/state/smoke" && LC_ALL=C ls -A | tr '\n' ' ')
[ "$FILES" = "campaign.json ledger.jsonl workers.json " ] || die "campaign dir holds: $FILES"

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "PASS: dist smoke"
