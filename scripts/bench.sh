#!/usr/bin/env bash
# A/B benchmark of two commits on this host at one time:
#   scripts/bench.sh BASE [HEAD]    HEAD defaults to HEAD; BENCH_COUNT pairs (default 10)
# Both commits are extracted with `git archive` into a temporary directory.
# Pair i runs each package's benchmarks, the root BenchmarkMCNaiveVsIS and
# each perfbench workload (seed i, untraced) on both sides in turn, the
# first side alternating; a failed or incorrect run stops the tool.
# scripts/abgate writes benchmarks/BENCH_ab.json, failing on a regressed or missing row.
set -euo pipefail
cd "$(dirname "$0")/.."
declare -A rev=([base]=$(git rev-parse --verify "${1:?usage: scripts/bench.sh BASE [HEAD]}^{commit}")
    [head]=$(git rev-parse --verify "${2:-HEAD}^{commit}"))
pkgs="mos num analysis ota filter wbga pareto montecarlo core spline table server"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for s in base head; do
    echo "== building $s ${rev[$s]}"
    mkdir "$tmp/$s"
    git archive "${rev[$s]}" | tar -x -C "$tmp/$s"
    (cd "$tmp/$s" && go test -c -trimpath -o bin/ . $(printf './internal/%s ' $pkgs))
done
# run SIDE PAIR LAYER DIR CMD... runs CMD in the side's DIR and appends one
# "SIDE LAYER OP UNIT VALUE" line per perfbench metric or go test -bench
# figure, the least of its -test.count runs: host stalls only slow a run.
run() {
    local side=$1 layer=$3
    (cd "$tmp/$side/$4" && shift 4 && "$@") > "$tmp/out" 2>&1 && ! grep -q '"correct":false' "$tmp/out" ||
        { tail -n 20 "$tmp/out"; echo "FAIL: $layer on the $side side (${rev[$side]}), pair $2"; exit 1; }
    awk -v id="$side $layer" '/^Benchmark/ { sub(/^Benchmark/, "", $1); sub(/-[0-9]+$/, "", $1)
            for (i = 3; i < NF; i += 2) if (!((k = $1 " " $(i + 1)) in m) || $i < m[k]) m[k] = $i }
        /^\{"correct"/ { while (match($0, /"[a-z0-9_]+":\{"value":[^,]*,"unit":"[^"]*"/)) {
            split(substr($0, RSTART, RLENGTH), f, "\""); gsub(/[:,]/, "", f[5])
            print id, f[2], f[8], f[5]; $0 = substr($0, RSTART + RLENGTH) } }
        END { for (k in m) print id, k, m[k] }' "$tmp/out" >> "$tmp/figures"
}
bench="-test.run ^$ -test.benchmem -test.count 3 -test.bench"
for ((i = 1; i <= ${BENCH_COUNT:-10}; i++)); do
    order="base head"; ((i % 2)) || order="head base"
    echo "== pair $i: $order"
    for job in $pkgs analogyield flow_naive design_is query_single query_churn; do
        for s in $order; do
            case $job in
            analogyield) run $s $i $job . bin/$job.test $bench MCNaiveVsIS -test.benchtime 1x ;;
            *_*) run $s $i $job . bash perfbench/run.sh --workload $job --seed $i --seconds "$seconds" --trace 0 ;;
            *) run $s $i $job internal/$job ../../bin/$job.test $bench . -test.benchtime 100ms ;;
            esac
        done
    done
done
go run ./scripts/abgate "${rev[base]}" "${rev[head]}" BENCHMARK.json \
    "$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo), $(nproc) CPUs" < "$tmp/figures" > benchmarks/BENCH_ab.json
