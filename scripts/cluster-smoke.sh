#!/usr/bin/env bash
# Cluster crash-takeover smoke through the real binary: boot two ayd
# replicas on one shared disk store, submit a flow job to the first,
# SIGKILL it mid-run — no drain, no lease release, exactly the failure
# the lease protocol exists for — and require the survivor to adopt the
# job (lease takeover after the TTL) and finish it from the dead
# replica's mirrored checkpoint. CI runs this as the cluster-smoke job.
#
#   scripts/cluster-smoke.sh
#
# Knobs (env):
#   BASE_PORT  first replica's port   (default 9280)
#   LEASE_TTL  job lease TTL          (default 1s)
#   TIMEOUT    takeover+finish budget (default 120 seconds)
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT="${BASE_PORT:-9280}"
LEASE_TTL="${LEASE_TTL:-1s}"
TIMEOUT="${TIMEOUT:-120}"
A="http://127.0.0.1:$BASE_PORT"
B="http://127.0.0.1:$((BASE_PORT + 1))"

work="$(mktemp -d)"
store="$work/store"
mkdir -p "$store"
pid_a="" pid_b=""
cleanup() {
    [ -n "$pid_a" ] && kill -9 "$pid_a" 2>/dev/null || true
    [ -n "$pid_b" ] && kill -9 "$pid_b" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/ayd" ./cmd/ayd

start() { # id addr peer-url logfile -> pid on stdout
    "$work/ayd" serve -addr "$2" -store disk -models "$store" \
        -replica-id "$1" -peers "$3" -lease-ttl "$LEASE_TTL" \
        >"$4" 2>&1 &
    echo $!
}
await() { # url name
    for _ in $(seq 1 100); do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return
        sleep 0.1
    done
    echo "cluster-smoke: $2 did not come up on $1" >&2
    exit 1
}

pid_a="$(start ra "127.0.0.1:$BASE_PORT" "$B" "$work/a.log")"
pid_b="$(start rb "127.0.0.1:$((BASE_PORT + 1))" "$A" "$work/b.log")"
await "$A" "replica A"
await "$B" "replica B"

# A flow big enough to outlive the kill, checkpointing every
# generation so the survivor has something to resume from.
flow='{"model":"smoke-ota","problem":"ota","pop_size":32,"generations":40,"mc_samples":300,"seed":42,"checkpoint_every":1}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$flow" "$A/v1/flows" >/dev/null
echo "cluster-smoke: flow submitted to A (pid $pid_a)"

# Wait for the first mirrored checkpoint, then kill the owner cold.
for _ in $(seq 1 200); do
    [ -d "$store/t/default/checkpoints/smoke-ota" ] && break
    sleep 0.1
done
[ -d "$store/t/default/checkpoints/smoke-ota" ] \
    || { echo "cluster-smoke: no checkpoint ever reached the shared store" >&2; exit 1; }
kill -9 "$pid_a"
pid_a=""
echo "cluster-smoke: owner SIGKILLed mid-flow; waiting for B to take over (TTL $LEASE_TTL)"

deadline=$((SECONDS + TIMEOUT))
takeover=""
while [ "$SECONDS" -lt "$deadline" ]; do
    rep="$(curl -fsS "$B/metrics" | awk '$1 == "ayd_lease_takeovers_total" { print $2 }')"
    if [ -z "$takeover" ] && [ "${rep:-0}" -ge 1 ]; then
        takeover=1
        echo "cluster-smoke: B adopted the job (lease_takeovers=$rep)"
    fi
    if [ -n "$takeover" ] \
        && curl -fsS "$B/v1/models/smoke-ota" >/dev/null 2>&1; then
        echo "cluster-smoke: PASS — survivor finished the adopted flow and installed smoke-ota"
        exit 0
    fi
    sleep 0.5
done
echo "cluster-smoke: FAIL — no takeover+finish within ${TIMEOUT}s (takeover seen: ${takeover:-no})" >&2
echo "--- A log tail ---" >&2; tail -20 "$work/a.log" >&2
echo "--- B log tail ---" >&2; tail -20 "$work/b.log" >&2
exit 1
