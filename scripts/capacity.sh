#!/usr/bin/env bash
# Capacity sweep of the yield-query serving path: ramp the offered load
# until the p99 SLO or the error budget breaks, and record the full
# qps-vs-latency curve plus the detected knee. The measurement is
# over-the-wire — aydload spawns a separate ayd serving process and
# drives it across real TCP — so the numbers compare directly with
# benchmarks/BENCH_serve_net.json.
#
#   scripts/capacity.sh                          # full sweep -> benchmarks/BENCH_capacity.json
#   SWEEP_START=2000 SWEEP_MAX=4000 STEP=2s REFINE=0 RETRIES=0 \
#       OUT=/tmp/cap.json scripts/capacity.sh    # CI smoke shape
#
# Knobs (env):
#   SWEEP_START  first rung's target qps           (default 9000 batched, 2000 single)
#   SWEEP_FACTOR geometric ramp factor             (default 1.5)
#   SWEEP_MAX    stop past this target qps         (default 200000)
#   REFINE       knee bisection steps              (default 2)
#   RETRIES      re-runs of a failing rung         (default 4)
#   STEP         measured seconds per rung         (default 2s)
#   WARMUP       unrecorded warm-up per rung       (default 1s)
#   SLO_P99      tail-latency budget               (default 2ms)
#   INFLIGHT     workers = connections             (default 8 batched, 12 single)
#   BATCH        queries per request               (default 8)
#   GOGC         GC percent for both processes     (default off)
#   GOMEMLIMIT   soft heap cap when GOGC=off       (default 256MiB)
#   OUT          report path                       (default benchmarks/BENCH_capacity.json)
#
# BATCH defaults to the optimizer-loop request shape (8 queries per
# POST, the regime the paper's behavioural models exist for): sweep
# rungs and the knee then count queries/s while the SLO still bounds
# per-request p99. BATCH=1 OUT=benchmarks/BENCH_capacity_single.json
# measures the one-query-per-request curve; `make capacity` records
# both.
#
# GC defaults to the memory-limit-only mode the Go GC guide describes
# (GOGC=off with a GOMEMLIMIT): the serving process's live heap is a
# few MB of resident models, so at GOGC=100 the collector runs every
# ~100ms and on a small-core host its mark phase IS the measured tail —
# switching to GOGC=3000 still left multi-ms p95 spikes that vanish
# with collection deferred to the memory limit. Deployments that care
# about p99 should pin GOGC/GOMEMLIMIT deliberately; the values used
# are recorded in the report.
#
# INFLIGHT defaults low (8-12 workers = as many connections) because each
# worker is an independently paced open-loop arrival stream: more
# workers means more timer wakeups per second competing for CPU, which
# on small-core hosts inflates the very tail being measured. RETRIES
# re-runs a failing rung because shared hosts (VMs, laptops) see
# multi-ms scheduling stalls in bursts; a rung only counts as failed
# once every attempt breaks the SLO, and every attempt is recorded in
# the report's steps array.
# The batched sweep starts inside the warm region rather than at the
# baseline 2000 q/s: at a few hundred requests/s the core sleeps
# between arrivals and every wake pays the host's idle-exit latency
# (multi-ms on shared VMs), so with CO-aware accounting the *lightly*
# loaded rungs show worse p99 than rungs near the knee. The single
# curve keeps the low rungs for continuity with the old baseline.
set -euo pipefail

cd "$(dirname "$0")/.."

BATCH="${BATCH:-8}"
if [ "$BATCH" -gt 1 ]; then
    SWEEP_START="${SWEEP_START:-9000}"
    INFLIGHT="${INFLIGHT:-8}"
else
    SWEEP_START="${SWEEP_START:-2000}"
    INFLIGHT="${INFLIGHT:-12}"
fi
SWEEP_FACTOR="${SWEEP_FACTOR:-1.5}"
SWEEP_MAX="${SWEEP_MAX:-200000}"
REFINE="${REFINE:-2}"
RETRIES="${RETRIES:-4}"
STEP="${STEP:-2s}"
WARMUP="${WARMUP:-1s}"
SLO_P99="${SLO_P99:-2ms}"
OUT="${OUT:-benchmarks/BENCH_capacity.json}"
export GOGC="${GOGC:-off}"
export GOMEMLIMIT="${GOMEMLIMIT:-256MiB}"

mkdir -p "$(dirname "$OUT")"

echo "== capacity sweep: start=$SWEEP_START x$SWEEP_FACTOR max=$SWEEP_MAX step=$STEP slo-p99=$SLO_P99 inflight=$INFLIGHT batch=$BATCH gogc=$GOGC gomemlimit=$GOMEMLIMIT"
go run ./cmd/aydload -sweep -addr 127.0.0.1:0 \
    -sweep-start "$SWEEP_START" -sweep-factor "$SWEEP_FACTOR" -sweep-max "$SWEEP_MAX" \
    -sweep-refine "$REFINE" -sweep-retries "$RETRIES" \
    -duration "$STEP" -warmup "$WARMUP" -slo-p99 "$SLO_P99" \
    -inflight "$INFLIGHT" -batch "$BATCH" \
    -o "$OUT"
echo "== wrote $OUT"
