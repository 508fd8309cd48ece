#!/bin/sh
# End-to-end smoke test for the bigmap-serve control plane, driven entirely
# through the public HTTP API the way an operator would drive it with curl:
#
#   1. start the daemon (chaos mode on, tiny checkpoint cadence)
#   2. submit a campaign, watch it make progress
#   3. pause, resume, and verify the state machine answers; the event log
#      is an array of {at_ns, name, ...} and the crash list an array
#   4. chaos-kill the owning worker mid-run and assert auto-recovery
#      (restart counted, campaign running again, rounds still advancing)
#   5. submit-and-cancel a second campaign
#   6. SIGTERM the daemon and assert a graceful drain (exit 0)
#   7. restart over the same state dir and assert the first campaign came
#      back paused with its checkpoint intact, then resume it
#
# Requires: go, curl, jq.
set -eu

ADDR="${ADDR:-127.0.0.1:8799}"
BASE="http://$ADDR"
DIR="$(mktemp -d)"
BIN="$DIR/bigmap-serve"
LOG="$DIR/serve.log"
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

die() {
    echo "FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

start_daemon() {
    "$BIN" -addr "$ADDR" -dir "$DIR/state" -chaos \
        -workers 2 -checkpoint-every 2 -quantum 2 -restart-backoff 5ms \
        >>"$LOG" 2>&1 &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$PID" 2>/dev/null || die "daemon died during startup"
        sleep 0.1
    done
    die "daemon never became healthy"
}

# poll <jq-expr> <want> <url>: wait until the expression evaluates to want.
poll() {
    expr="$1" want="$2" url="$3"
    for _ in $(seq 1 200); do
        got=$(curl -fsS "$url" | jq -r "$expr") || got=""
        [ "$got" = "$want" ] && return 0
        sleep 0.1
    done
    die "timeout waiting for $expr == $want at $url (last: ${got:-?})"
}

echo "=== build"
go build -o "$BIN" ./cmd/bigmap-serve

echo "=== start daemon"
start_daemon

echo "=== submit campaign"
ID=$(curl -fsS -X POST "$BASE/campaigns" -d '{
    "tenant": "smoke",
    "spec": {"bench": "zlib", "scale": 0.02, "map_size": 4096,
             "sync_every": 200, "seed_corpus": 4, "rounds": 1048576}
}' | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || die "submit returned no campaign id"
echo "    id=$ID"

echo "=== wait for progress"
poll '.rounds > 0' true "$BASE/campaigns/$ID/stats"

echo "=== pause / resume"
curl -fsS -X POST "$BASE/campaigns/$ID/pause" | jq -e '.state == "paused"' >/dev/null \
    || die "pause not acknowledged"
curl -fsS -X POST "$BASE/campaigns/$ID/resume" >/dev/null
poll '.state == "running" or .state == "queued"' true "$BASE/campaigns/$ID"

echo "=== event log and crash buckets"
curl -fsS "$BASE/campaigns/$ID/events" \
    | jq -e 'type == "array" and length > 0 and all(.[]; has("at_ns") and has("name"))' >/dev/null \
    || die "events is not a non-empty array of {at_ns, name}"
curl -fsS "$BASE/campaigns/$ID/crashes" | jq -e 'type == "array"' >/dev/null \
    || die "crashes is not an array"

echo "=== chaos-kill the worker mid-run"
poll '.state == "running"' true "$BASE/campaigns/$ID"
ROUNDS_BEFORE=$(curl -fsS "$BASE/campaigns/$ID" | jq -r .checkpoint_rounds)
curl -fsS -X POST "$BASE/campaigns/$ID/kill" >/dev/null || die "chaos kill rejected"

echo "=== assert auto-recovery"
poll '.restarts >= 1' true "$BASE/campaigns/$ID"
poll '.state == "running"' true "$BASE/campaigns/$ID"
poll ".rounds > $ROUNDS_BEFORE" true "$BASE/campaigns/$ID"
echo "    recovered: $(curl -fsS "$BASE/campaigns/$ID" | jq -c '{state, rounds, restarts}')"

echo "=== submit + cancel a second campaign"
ID2=$(curl -fsS -X POST "$BASE/campaigns" -d '{
    "tenant": "smoke2",
    "spec": {"bench": "zlib", "scale": 0.02, "map_size": 4096,
             "sync_every": 200, "seed_corpus": 4, "rounds": 1048576}
}' | jq -r .id)
curl -fsS -X POST "$BASE/campaigns/$ID2/cancel" | jq -e '.state == "cancelled"' >/dev/null \
    || die "cancel not acknowledged"

echo "=== graceful drain on SIGTERM"
kill -TERM "$PID"
n=0
while kill -0 "$PID" 2>/dev/null; do
    n=$((n + 1))
    [ "$n" -gt 300 ] && die "daemon did not exit within 30s of SIGTERM"
    sleep 0.1
done
wait "$PID" 2>/dev/null && RC=0 || RC=$?
PID=""
[ "$RC" -eq 0 ] || die "daemon exited $RC on SIGTERM, want 0"
ls "$DIR/state/campaigns/$ID/" | grep -q '^chk-' || die "no checkpoint on disk after drain"

echo "=== restart over the same state dir"
start_daemon
curl -fsS "$BASE/campaigns/$ID" | jq -e '.state == "paused"' >/dev/null \
    || die "drained campaign did not come back paused"
curl -fsS "$BASE/campaigns/$ID2" | jq -e '.state == "cancelled"' >/dev/null \
    || die "cancelled campaign lost its terminal state"
curl -fsS -X POST "$BASE/campaigns/$ID/resume" >/dev/null
poll '.state == "running" or .state == "queued"' true "$BASE/campaigns/$ID"

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "PASS: serve smoke"
