#!/usr/bin/env bash
# Compare two `go test -bench` outputs by ns/op and fail when any shared
# benchmark regressed more than BENCH_MAX_REGRESSION_PCT percent
# (default 5), or when a baseline benchmark is missing from the new run
# (a renamed or deleted benchmark must not drop out of the gate
# silently). Usage: bench-compare.sh baseline.txt latest.txt
#
# Offline replacement for benchstat: no statistics, just the mean ns/op
# per benchmark name (averaged across -count repetitions).
set -euo pipefail

BASE="${1:?usage: bench-compare.sh baseline.txt latest.txt}"
NEW="${2:?usage: bench-compare.sh baseline.txt latest.txt}"
MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"

if [[ ! -f "$BASE" ]]; then
    echo "== no baseline at $BASE — skipping comparison"
    echo "   (record one with: cp $NEW $BASE)"
    exit 0
fi

awk -v max_pct="$MAX_PCT" -v base_file="$BASE" -v new_file="$NEW" '
# Benchmark lines look like:
#   BenchmarkOPSolve-8   12345   98765 ns/op   120 B/op   3 allocs/op
# Strip the -N GOMAXPROCS suffix so runs from different machines compare.
function bench_name(s) { sub(/-[0-9]+$/, "", s); return s }

FNR == 1 { in_base = (FILENAME == base_file) }
/^Benchmark/ {
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") {
            name = bench_name($1)
            if (in_base) { bsum[name] += $(i-1); if (!(name in bn)) border[++bk] = name; bn[name]++ }
            else         { nsum[name] += $(i-1); nn[name]++; if (!(name in seen)) order[++k] = name; seen[name] = 1 }
        }
    }
}
END {
    printf "== comparing vs %s (max regression %s%%)\n", base_file, max_pct
    printf "%-40s %12s %12s %8s\n", "benchmark", "base ns/op", "new ns/op", "delta"
    fail = 0
    for (j = 1; j <= k; j++) {
        name = order[j]
        if (!(name in bn)) continue
        b = bsum[name] / bn[name]
        n = nsum[name] / nn[name]
        pct = (b > 0) ? 100 * (n - b) / b : 0
        mark = ""
        if (pct > max_pct + 0) { mark = "  REGRESSION"; fail = 1 }
        printf "%-40s %12.0f %12.0f %+7.1f%%%s\n", name, b, n, pct, mark
    }
    for (j = 1; j <= bk; j++) {
        name = border[j]
        if (name in seen) continue
        printf "%-40s %12.0f %12s %8s  MISSING\n", name, bsum[name] / bn[name], "-", "-"
        missing = 1
    }
    if (missing) print "FAIL: baseline benchmarks missing from the new run"
    if (fail) printf "FAIL: benchmark regression beyond %s%%\n", max_pct
    if (fail || missing) exit 1
    print "OK: no benchmark regressed beyond the threshold"
}' "$BASE" "$NEW"
