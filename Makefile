# Convenience targets; everything is plain `go` underneath.

.PHONY: build test test-race e2e-store vet lint check bench bench-paper bench-perf loadtest capacity profile soak-smoke examples cover cluster cluster-down cluster-smoke

build:
	go build ./...

vet:
	go vet ./...

# go vet + staticcheck (when installed).
lint:
	scripts/lint.sh

test:
	go test ./...

# Concurrency-sensitive packages (worker pools, genome cache, HTTP
# server, the artefact store and its leases) under the race detector,
# uncached.
test-race:
	go test -race -count=1 ./internal/wbga/... ./internal/montecarlo/... ./internal/analysis/... ./internal/core/... ./internal/filter/... ./internal/server/... ./internal/store/...

# Durability through the real binary: boot `ayd serve -models DIR`,
# install a model over the tenant API, kill, restart on the same
# directory, require byte-identical answers.
e2e-store:
	scripts/e2e-store.sh

# Everything CI should gate on.
check: lint test test-race

# Solver/engine micro-benchmarks with baseline comparison (fails on >5%
# ns/op regression when benchmarks/baseline.txt exists).
bench-perf:
	scripts/bench.sh

# Open-loop load test of the yield-query serving path (in-process server
# unless URL is set); writes benchmarks/BENCH_serve.json and, when no
# URL is given, an over-the-wire run to benchmarks/BENCH_serve_net.json.
loadtest:
	scripts/loadtest.sh

# Capacity sweep over real TCP: ramp the offered rate until the p99
# SLO breaks, bisect the knee, write the qps-vs-latency curves —
# batched optimizer-loop requests (benchmarks/BENCH_capacity.json) and
# one-query-per-request (benchmarks/BENCH_capacity_single.json). See
# scripts/capacity.sh for knobs.
capacity:
	scripts/capacity.sh
	BATCH=1 OUT=benchmarks/BENCH_capacity_single.json scripts/capacity.sh

# One profiled load run: CPU and heap profiles of the load generator
# (which, in the default in-process mode, include the full serving
# path). Inspect with `go tool pprof cpu.prof`.
profile:
	go run ./cmd/aydload -qps $${QPS:-8000} -duration $${DURATION:-5s} \
	    -cpuprofile cpu.prof -memprofile mem.prof -o /dev/null
	@echo "wrote cpu.prof and mem.prof"

# Short soak under -race: `aydload -soak` spawns a serving child, holds
# mixed query/flow load, and fails on goroutine/RSS growth, p99 drift,
# errors or a child that exits non-zero (a data race); writes
# benchmarks/SOAK.json.
soak-smoke:
	scripts/soak-smoke.sh

# Local multi-replica cluster on a shared store: REPLICAS (default 2)
# ayd processes with lease coordination and crash takeover.
# Base URLs land in .cluster/urls; `make cluster-down` tears it down.
cluster:
	scripts/cluster.sh up $${REPLICAS:-2}

cluster-down:
	scripts/cluster.sh down

# Crash-takeover e2e through the real binary: two replicas, one flow,
# SIGKILL the owner mid-run, require the survivor to adopt and finish.
cluster-smoke:
	scripts/cluster-smoke.sh

# Regenerate every paper table/figure at scaled-down budgets (~1 min).
bench:
	go test -run XXX -bench . -benchtime 5x .

# Regenerate at the paper's exact budgets (10,000 MOO evaluations,
# 200 MC samples per Pareto point, 500-sample filter MC).
bench-paper:
	ANALOGYIELD_PAPER=1 go test -run XXX -bench . -benchtime 2x -timeout 60m .

examples:
	go run ./examples/quickstart
	go run ./examples/filterdesign
	go run ./examples/slewbuffer
	go run ./examples/yieldclient

cover:
	go test -cover ./...
