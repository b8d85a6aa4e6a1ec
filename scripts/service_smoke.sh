#!/usr/bin/env bash
# Service smoke test: start pitchforkd on a Unix socket, drive a
# compile + run + stats round-trip with pitchfork-cli, verify the
# second compile of the same key is a cache hit, exercise protocol v2
# (a tagged compile, a pipelined three-request exchange, and the
# Prometheus-style stats rendering), check that a response past the
# frame limit is a structured error on a daemon that keeps serving,
# then assert a clean shutdown on
# SIGTERM (exit 0, socket unlinked). Then: a restart-warm round trip
# (SIGTERM + relaunch on the same --cache-dir makes the second
# process serve the key as a hit without recompiling), a 2-daemon
# peer fleet (the same key on both daemons compiles once fleet-wide,
# the non-owner serving it via peer_get), and a dead peer (after A is
# SIGTERMed, B still answers a fresh compile on every ISA).
#
# Usage: scripts/service_smoke.sh [path-to-target-dir]
# Expects `pitchforkd` and `pitchfork-cli` already built (release).

set -euo pipefail

TARGET="${1:-target/release}"
SOCK="${TMPDIR:-/tmp}/pitchforkd-smoke-$$.sock"
EXPR='u8(min(u16(a_u8) + u16(b_u8), 255))'

CACHE_DIR="${TMPDIR:-/tmp}/pitchforkd-smoke-cache-$$"

cleanup() {
    for p in "${PID:-}" "${PID_A:-}" "${PID_B:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$CACHE_DIR"
}

fail() {
    echo "service_smoke: FAIL — $1" >&2
    cleanup
    exit 1
}

"$TARGET/pitchforkd" --socket "$SOCK" --workers 2 --timeout-ms 30000 &
PID=$!
trap cleanup EXIT

# Wait for a daemon's socket to appear.
wait_sock() {
    local sock="$1" pid="$2"
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        kill -0 "$pid" 2>/dev/null || fail "daemon died before binding $sock"
        sleep 0.1
    done
    fail "socket $sock never appeared"
}

# SIGTERM a daemon and require a clean (status 0) exit within 10s.
term_and_wait() {
    local pid="$1"
    kill -TERM "$pid"
    local waited=0
    while kill -0 "$pid" 2>/dev/null; do
        sleep 0.1
        waited=$((waited + 1))
        [ "$waited" -gt 100 ] && fail "daemon $pid ignored SIGTERM for 10s"
    done
    wait "$pid" || fail "daemon $pid exited with status $? on SIGTERM"
}

wait_sock "$SOCK" "$PID"

CLI="$TARGET/pitchfork-cli"

echo "== ping"
"$CLI" --socket "$SOCK" ping | grep -q '"pong":true' || fail "ping"

echo "== compile (cold)"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"source":"computed"' || fail "first compile was not a miss: $OUT"
echo "$OUT" | grep -q '"lowered":"arm.uqadd(a_u8, b_u8)"' || fail "unexpected lowering: $OUT"

echo "== compile (warm)"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"source":"hit"' || fail "second compile was not a cache hit: $OUT"

echo "== run"
OUT=$("$CLI" --socket "$SOCK" run --expr "$EXPR" --lanes 4 --isa arm \
    --input a=250,1,128,255 --input b=10,2,128,255)
echo "$OUT" | grep -q '"output":\[255,3,255,255\]' || fail "wrong run output: $OUT"

echo "== tagged compile (protocol v2)"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm --tag smoke-1)
echo "$OUT" | grep -q '"tag":"smoke-1"' || fail "tag was not echoed: $OUT"

echo "== pipelined exchange (3 tagged requests before any read)"
OUT=$("$CLI" --socket "$SOCK" pipeline --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"pipelined":3' || fail "pipelined exchange: $OUT"

echo "== stats"
OUT=$("$CLI" --socket "$SOCK" stats)
# Two distinct keys were compiled (the lanes=16 compile and the
# lanes=4 run); every repeated lanes=16 compile must have been a hit.
echo "$OUT" | grep -q '"cache_hits":[1-9]' || fail "stats show no cache hit: $OUT"
echo "$OUT" | grep -q '"compiles":2' || fail "stats show duplicate compiles: $OUT"

echo "== stats --text"
OUT=$("$CLI" --socket "$SOCK" stats --text)
echo "$OUT" | grep -q 'pitchforkd_requests' || fail "no text-format counters: $OUT"
echo "$OUT" | grep -q 'pitchforkd_open_connections' || fail "no event-loop gauges: $OUT"

echo "== oversized response (16 nested absd on x86)"
# The lowered DAG prints as a tree past the 16 MiB frame limit: the
# request gets a structured error and the daemon keeps serving.
DEEP='a_u8'
for _ in $(seq 1 16); do DEEP="absd($DEEP, b_u8)"; done
if OUT=$("$CLI" --socket "$SOCK" compile --expr "$DEEP" --lanes 32 --isa x86); then
    fail "an oversized response was answered ok: ${OUT:0:200}"
fi
echo "$OUT" | grep -q '"code":"internal"' || fail "oversized response: ${OUT:0:200}"
"$CLI" --socket "$SOCK" ping | grep -q '"pong":true' || fail "ping after the oversized response"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"source":"hit"' || fail "cache hit after the oversized response: $OUT"

echo "== SIGTERM"
term_and_wait "$PID"
PID=""
[ ! -e "$SOCK" ] || fail "socket file survived shutdown"

echo "== restart-warm round trip"
mkdir -p "$CACHE_DIR"
"$TARGET/pitchforkd" --socket "$SOCK" --workers 2 --cache-dir "$CACHE_DIR" &
PID=$!
wait_sock "$SOCK" "$PID"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"source":"computed"' || fail "cold compile before restart: $OUT"
term_and_wait "$PID"
ls "$CACHE_DIR"/*.pfa >/dev/null 2>&1 || fail "no spill files in $CACHE_DIR"
"$TARGET/pitchforkd" --socket "$SOCK" --workers 2 --cache-dir "$CACHE_DIR" &
PID=$!
wait_sock "$SOCK" "$PID"
OUT=$("$CLI" --socket "$SOCK" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"source":"hit"' || fail "compile after restart was not warm: $OUT"
OUT=$("$CLI" --socket "$SOCK" stats)
echo "$OUT" | grep -q '"disk_loaded":[1-9]' || fail "restart loaded nothing from disk: $OUT"
echo "$OUT" | grep -q '"compiles":0' || fail "warm restart recompiled: $OUT"
term_and_wait "$PID"
PID=""

echo "== 2-daemon peer fleet"
SOCK_A="${TMPDIR:-/tmp}/pitchforkd-smoke-a-$$.sock"
SOCK_B="${TMPDIR:-/tmp}/pitchforkd-smoke-b-$$.sock"
"$TARGET/pitchforkd" --socket "$SOCK_A" --workers 2 --peer "unix:$SOCK_B" &
PID_A=$!
"$TARGET/pitchforkd" --socket "$SOCK_B" --workers 2 --peer "unix:$SOCK_A" &
PID_B=$!
wait_sock "$SOCK_A" "$PID_A"
wait_sock "$SOCK_B" "$PID_B"
OUT=$("$CLI" --socket "$SOCK_A" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"ok":true' || fail "fleet compile on A: $OUT"
OUT=$("$CLI" --socket "$SOCK_B" compile --expr "$EXPR" --lanes 16 --isa arm)
echo "$OUT" | grep -q '"ok":true' || fail "fleet compile on B: $OUT"
COMPILES=0
PEER_HITS=0
for s in "$SOCK_A" "$SOCK_B"; do
    OUT=$("$CLI" --socket "$s" stats)
    C=$(echo "$OUT" | grep -o '"compiles":[0-9]*' | grep -o '[0-9]*')
    H=$(echo "$OUT" | grep -o '"peer_hits":[0-9]*' | grep -o '[0-9]*')
    COMPILES=$((COMPILES + C))
    PEER_HITS=$((PEER_HITS + H))
done
[ "$COMPILES" -eq 1 ] || fail "fleet compiled the key $COMPILES times, want 1"
[ "$PEER_HITS" -ge 1 ] || fail "no peer_get hit recorded across the fleet"

echo "== dead peer: B serves alone once A is gone"
term_and_wait "$PID_A"
PID_A=""
# Fresh keys (lanes 32), so each one misses B's cache. Which of them A
# owned depends on the socket paths, so no counter is asserted: each
# compile either fetches nothing from the dead owner and compiles
# locally, or was B's to compile anyway.
for isa in x86 arm hvx rvv; do
    OUT=$("$CLI" --socket "$SOCK_B" compile --expr "$EXPR" --lanes 32 --isa "$isa")
    echo "$OUT" | grep -q '"ok":true' || fail "B alone, $isa compile: $OUT"
done
term_and_wait "$PID_B"
PID_B=""

echo "service_smoke: PASS"
