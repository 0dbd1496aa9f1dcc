#!/usr/bin/env bash
# Short soak of a separate serving process: build aydload (race
# detector on by default) and let `aydload -soak` spawn its serving
# child on a free loopback port and hold mixed query/flow load on it
# long enough to see a leak trend. Goroutine count, RSS and tail latency
# are sampled over the run and the thresholds fail the script, as does a
# child that exits non-zero: a -race child that saw a data race exits
# 66, and its race report passes through on stderr.
#
#   scripts/soak-smoke.sh                30s at 300 qps, -race build
#   DURATION=10m QPS=1000 scripts/soak-smoke.sh
#   RACE=0 scripts/soak-smoke.sh         # plain build (faster, quieter)
#
# The report lands in benchmarks/SOAK.json (what the CI soak job
# uploads).
set -euo pipefail

cd "$(dirname "$0")/.."

DURATION="${DURATION:-30s}"
QPS="${QPS:-300}"
INFLIGHT="${INFLIGHT:-64}"
RACE="${RACE:-1}"
OUT=benchmarks/SOAK.json

mkdir -p benchmarks bin

BUILD_FLAGS=()
if [ "$RACE" = "1" ]; then
    BUILD_FLAGS+=(-race)
fi

echo "== building aydload (race=$RACE)"
go build "${BUILD_FLAGS[@]}" -o bin/aydload-soak ./cmd/aydload

echo "== soak: duration=$DURATION qps=$QPS inflight=$INFLIGHT"
bin/aydload-soak -soak -addr 127.0.0.1:0 \
    -duration "$DURATION" -qps "$QPS" -inflight "$INFLIGHT" \
    -o "$OUT"
echo "== wrote $OUT"
