#!/usr/bin/env bash
# End-to-end durability check of the disk artefact store through the
# real binary: build ayd, boot it with -store disk on a scratch
# directory, install a model over the tenant-scoped API, query it, kill
# the process, boot a fresh one on the same directory and query again.
# Fails unless the answers match byte for byte.
#
#   scripts/e2e-store.sh
#   STORE_DIR=/tmp/mystore scripts/e2e-store.sh   # keep the store around
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:8091}"
TENANT="${TENANT:-acme}"
STORE_DIR="${STORE_DIR:-}"
cleanup_dir=""
if [ -z "$STORE_DIR" ]; then
  STORE_DIR="$(mktemp -d)"
  cleanup_dir="$STORE_DIR"
fi

bin="$(mktemp -d)/ayd"
go build -o "$bin" ./cmd/ayd

pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
  [ -n "$cleanup_dir" ] && rm -rf "$cleanup_dir"
  rm -rf "$(dirname "$bin")"
}
trap cleanup EXIT

start() {
  "$bin" serve -addr "$ADDR" -store disk -models "$STORE_DIR" &
  pid=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  echo "e2e-store: server did not come up on $ADDR" >&2
  exit 1
}

stop() {
  kill "$pid"
  wait "$pid" 2>/dev/null || true
  pid=""
}

# A 4-point synthetic front: the fewest points a model table accepts.
model_json='{
  "name": "e2e-ota",
  "objectives": ["gain_db", "pm_deg"],
  "params": ["P1", "P2", "P3"],
  "units": ["um", "um", "um"],
  "points": [
    {"perf": [45, 85], "delta_pct": [1.0, 0.5], "params": [10, 10, 10]},
    {"perf": [48, 81], "delta_pct": [1.1, 0.53], "params": [27, 10, 10]},
    {"perf": [52, 77], "delta_pct": [1.15, 0.57], "params": [43, 10, 10]},
    {"perf": [55, 73], "delta_pct": [1.2, 0.6], "params": [60, 10, 10]}
  ]
}'
query_json='{"model":"e2e-ota","specs":[{"name":"gain_db","sense":">=","bound":50},{"name":"pm_deg","sense":">=","bound":76}]}'

start
echo "e2e-store: installing model as tenant $TENANT"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "$model_json" "http://$ADDR/v1/t/$TENANT/models" >/dev/null
answer1="$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "$query_json" "http://$ADDR/v1/t/$TENANT/yield/query")"
echo "e2e-store: first process answered: $answer1"
stop

echo "e2e-store: restarting on the same store directory"
start
answer2="$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "$query_json" "http://$ADDR/v1/t/$TENANT/yield/query")"
stop

if [ "$answer1" != "$answer2" ]; then
  echo "e2e-store: FAIL — answers differ across restart" >&2
  echo "  before: $answer1" >&2
  echo "  after:  $answer2" >&2
  exit 1
fi
echo "e2e-store: PASS — model survived the restart with identical answers"
