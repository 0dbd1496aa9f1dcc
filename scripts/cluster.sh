#!/usr/bin/env bash
# Local ayd cluster bring-up and teardown: N replicas of the real
# binary sharing one disk artefact store, each with a unique
# -replica-id and a short job-lease TTL so crash takeover is quick to
# watch.
#
#   scripts/cluster.sh up 3      # boot 3 replicas on 127.0.0.1:9180..9182
#   scripts/cluster.sh status    # per-replica lease counters from /metrics
#   scripts/cluster.sh down      # stop everything, remove runtime state
#
# `make cluster` / `make cluster-down` wrap up/down. After `up`, the
# replica base URLs are in $STATE_DIR/urls (comma-separated) — pass
# that straight to `aydload -url "$(cat .cluster/urls)"` or curl any
# replica directly.
#
# Knobs (env):
#   REPLICAS      replica count for `up` (also the positional arg)
#   BASE_PORT     first replica's port                  (default 9180)
#   STATE_DIR     pids/urls/binary/log directory        (default .cluster)
#   STORE_DIR     shared artefact store                 (default $STATE_DIR/store)
#   LEASE_TTL     job lease TTL                         (default 2s)
#   CPU_QUOTA_US  per-replica cgroup-v1 CPU quota in µs per CPU_PERIOD_US
#                 (default: none). quota/period = CPUs per replica; needs
#                 a writable /sys/fs/cgroup/cpu (root). This is how
#                 scripts/cluster_bench.sh holds per-replica resources
#                 constant while the replica count varies.
#   CPU_PERIOD_US CFS period for the quota (default 100000). A shorter
#                 period caps how long a replica that exhausts its quota
#                 stalls — the bench uses 20000 so throttle pauses stay
#                 under the latency SLO instead of dominating p99.
#   EXTRA_FLAGS   appended to every `ayd serve` invocation
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT="${BASE_PORT:-9180}"
STATE_DIR="${STATE_DIR:-.cluster}"
STORE_DIR="${STORE_DIR:-$STATE_DIR/store}"
LEASE_TTL="${LEASE_TTL:-2s}"
CPU_QUOTA_US="${CPU_QUOTA_US:-}"
CPU_PERIOD_US="${CPU_PERIOD_US:-100000}"
EXTRA_FLAGS="${EXTRA_FLAGS:-}"

# v1 exposes the cpu controller at /sys/fs/cgroup/cpu with cfs_* knobs;
# v2 is unified at /sys/fs/cgroup with a single cpu.max file.
if [ -f /sys/fs/cgroup/cgroup.controllers ]; then
    CG_V2=1
    CG_ROOT=/sys/fs/cgroup
else
    CG_V2=""
    CG_ROOT=/sys/fs/cgroup/cpu
fi

cmd="${1:-}"

# cgroup_prepare creates one replica's CPU slice. The replica is
# launched from a shell that joins the slice via cgroup.procs *before*
# exec-ing the binary: attaching an already-running Go process instead
# would move only the written thread (v1 `tasks` semantics) and leave
# the runtime threads spawned earlier outside the quota.
cgroup_prepare() { # replica-index
    local slice="$CG_ROOT/ayd-r$1"
    mkdir -p "$slice" 2>/dev/null || return 1
    if [ -n "$CG_V2" ]; then
        echo "+cpu" > "$CG_ROOT/cgroup.subtree_control" 2>/dev/null || true
        echo "$CPU_QUOTA_US $CPU_PERIOD_US" > "$slice/cpu.max" || return 1
    else
        echo "$CPU_PERIOD_US" > "$slice/cpu.cfs_period_us" || return 1
        echo "$CPU_QUOTA_US" > "$slice/cpu.cfs_quota_us" || return 1
    fi
}

up() {
    local n="${1:-${REPLICAS:-2}}"
    [ -e "$STATE_DIR/urls" ] && { echo "cluster: already up ($(cat "$STATE_DIR/urls")); run down first" >&2; exit 1; }
    mkdir -p "$STATE_DIR" "$STORE_DIR"
    go build -o "$STATE_DIR/ayd" ./cmd/ayd

    local addrs=() urls=()
    for i in $(seq 0 $((n - 1))); do
        addrs+=("127.0.0.1:$((BASE_PORT + i))")
        urls+=("http://127.0.0.1:$((BASE_PORT + i))")
    done

    for i in $(seq 0 $((n - 1))); do
        if [ -n "$CPU_QUOTA_US" ]; then
            cgroup_prepare "$i" \
                || { echo "cluster: cannot apply CPU_QUOTA_US (need writable $CG_ROOT)" >&2; exit 1; }
        fi
        # shellcheck disable=SC2086 # EXTRA_FLAGS is deliberately word-split
        (
            if [ -n "$CPU_QUOTA_US" ]; then
                echo "$BASHPID" > "$CG_ROOT/ayd-r$i/cgroup.procs"
            fi
            exec "$STATE_DIR/ayd" serve -addr "${addrs[$i]}" -store disk -models "$STORE_DIR" \
                -replica-id "r$i" -lease-ttl "$LEASE_TTL" \
                $EXTRA_FLAGS
        ) >"$STATE_DIR/r$i.log" 2>&1 &
        echo $! > "$STATE_DIR/r$i.pid"
    done

    for i in $(seq 0 $((n - 1))); do
        local ok=""
        for _ in $(seq 1 100); do
            curl -fsS "${urls[$i]}/healthz" >/dev/null 2>&1 && { ok=1; break; }
            sleep 0.1
        done
        [ -n "$ok" ] || { echo "cluster: replica r$i did not come up on ${addrs[$i]} (see $STATE_DIR/r$i.log)" >&2; exit 1; }
    done

    (IFS=,; echo "${urls[*]}") > "$STATE_DIR/urls"
    echo "cluster: $n replicas up, store $STORE_DIR, lease TTL $LEASE_TTL${CPU_QUOTA_US:+, ${CPU_QUOTA_US}/${CPU_PERIOD_US}µs CPU each}"
    echo "cluster: urls: $(cat "$STATE_DIR/urls")"
}

down() {
    local any=""
    for pidfile in "$STATE_DIR"/r*.pid; do
        [ -e "$pidfile" ] || continue
        any=1
        local pid
        pid="$(cat "$pidfile")"
        kill "$pid" 2>/dev/null || true
    done
    # SIGTERM drains release job leases; give that a moment before reaping.
    for pidfile in "$STATE_DIR"/r*.pid; do
        [ -e "$pidfile" ] || continue
        local pid i
        pid="$(cat "$pidfile")"
        for _ in $(seq 1 100); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$pid" 2>/dev/null || true
        i="$(basename "$pidfile" .pid)"
        rmdir "$CG_ROOT/ayd-$i" 2>/dev/null || true
        rm -f "$pidfile"
    done
    rm -f "$STATE_DIR/urls"
    [ -n "$any" ] && echo "cluster: down" || echo "cluster: nothing running"
}

status() {
    [ -e "$STATE_DIR/urls" ] || { echo "cluster: not up"; exit 1; }
    IFS=, read -ra urls < "$STATE_DIR/urls"
    for u in "${urls[@]}"; do
        echo "== $u"
        curl -fsS "$u/metrics" | grep -E '^ayd_(replica_info|leases_held|lease_)' \
            || echo "  (unreachable)"
    done
}

case "$cmd" in
    up) up "${2:-}" ;;
    down) down ;;
    status) status ;;
    *) echo "usage: scripts/cluster.sh up [N] | down | status" >&2; exit 2 ;;
esac
