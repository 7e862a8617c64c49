# Convenience targets for the msweb reproduction.

GO ?= go

.PHONY: all build vet lint test test-short race check bench benchdiff loadbench scalebench tournament autoscale experiments csv clean help

all: build vet test

help:
	@echo "msweb targets:"
	@echo "  build       compile every package"
	@echo "  vet         go vet ./..."
	@echo "  lint        staticcheck ./... (skipped when staticcheck is not installed)"
	@echo "  test        full test suite (includes live loopback replays)"
	@echo "  test-short  test suite minus the wall-clock replays"
	@echo "  check       go vet + go test -race ./... (the pre-merge gate;"
	@echo "              exercises the parallel experiment grid under the race detector)"
	@echo "  race        race detector on the live-cluster packages only"
	@echo "  bench       all benchmarks with -benchmem, JSON summary in BENCH_results.json"
	@echo "  benchdiff   benchstat old-vs-new against bench/baseline.txt"
	@echo "              (skipped when benchstat is not installed)"
	@echo "  loadbench   live-cluster load generation (closed + open loop via"
	@echo "              cmd/loadgen) folded into BENCH_results.json with the"
	@echo "              microbenchmarks and baseline deltas"
	@echo "  scalebench  cores→throughput scaling sweep: the frame-native client"
	@echo "              drives a fast-mode cluster with SO_REUSEPORT-sharded"
	@echo "              listeners at each GOMAXPROCS width; the curve (and its"
	@echo "              parallel efficiency) lands in BENCH_results.json as a"
	@echo "              scaling section (widths beyond this machine are skipped)"
	@echo "  tournament  head-to-head policy comparison on both planes: the"
	@echo "              simulator grid (msbench) and a live loadgen sweep,"
	@echo "              folded into BENCH_results.json as a Tournament section"
	@echo "  autoscale   online Theorem-1 autoscaler vs a fixed fleet under"
	@echo "              diurnal and flash-crowd load (byte-deterministic"
	@echo "              sharded simulator); node-hours saved and SLO"
	@echo "              attainment fold into BENCH_results.json as an"
	@echo "              Autoscale section"
	@echo "  experiments regenerate every table and figure (minutes)"
	@echo "  csv         experiments plus CSV output in results/csv"
	@echo "  clean       go clean ./..."

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (successfully)
# when the box doesn't have it so `make check` works on a bare toolchain.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Skips the live-cluster (wall-clock) validation tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/httpcluster/ ./internal/chaos/ ./internal/replay/ ./cmd/msload/

# The pre-merge gate: vet + lint plus the whole suite under the race
# detector. The experiment grids run parallel by default, so this
# exercises the worker pool, the shared trace cache, and the engine pool
# under -race.
check: vet lint
	$(GO) test -race ./...

# Benchmarks with allocation counts; the parsed summary — including
# before/after deltas against the committed pre-optimization baseline —
# lands in BENCH_results.json for machine consumption (see cmd/benchjson).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -baseline bench/baseline.txt > BENCH_results.json

# Compare current benchmarks against the committed pre-optimization
# baseline (bench/baseline.txt, recorded before the zero-allocation
# simulator core landed). Like lint, the optional tool is skipped
# gracefully on a bare toolchain.
benchdiff:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) test -bench=. -benchmem -run '^$$' . > bench/current.txt && \
		benchstat bench/baseline.txt bench/current.txt; \
	else \
		echo "benchdiff: benchstat not installed; skipping (go install golang.org/x/perf/cmd/benchstat@latest)"; \
	fi

# End-to-end live-cluster numbers: a paced closed-loop run (with the
# coordinated-omission-corrected histogram), an open-loop run, a chaos
# run (randomized fault injection; see internal/chaos), and an
# uncalibrated fast-mode run with batched frame dispatch (the
# req_s_per_core headline — the data plane itself is the bottleneck, not
# emulated service times) against self-hosted loopback clusters, then
# the full microbenchmark suite; all of it lands in one
# BENCH_results.json (results/live_*.json keep the raw loadgen
# summaries).
loadbench:
	@mkdir -p results
	$(GO) run ./cmd/loadgen -mode closed -concurrency 8 -rps 400 -n 2000 \
		-nodes 6 -masters 2 -timescale 0.01 -out results/live_closed.json
	$(GO) run ./cmd/loadgen -mode open -rps 400 -n 2000 \
		-nodes 6 -masters 2 -timescale 0.01 -out results/live_open.json
	$(GO) run ./cmd/loadgen -mode closed -concurrency 8 -n 2000 \
		-nodes 6 -masters 2 -timescale 0.01 -chaos -chaos-seed 42 -chaos-len 4s \
		-out results/live_chaos.json
	$(GO) run ./cmd/loadgen -mode closed -concurrency 32 -n 20000 \
		-nodes 3 -masters 1 -fast -batch 200us -out results/live_fast.json
	$(GO) run ./cmd/loadgen -mode closed -concurrency 16 -n 4000 \
		-nodes 132 -masters 4 -shards 4 -fast -out results/live_sharded.json
	$(GO) test -bench=. -benchmem -run '^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -baseline bench/baseline.txt \
			-live results/live_closed.json,results/live_open.json,results/live_chaos.json,results/live_fast.json,results/live_sharded.json > BENCH_results.json

# Multi-core scaling harness: the frame-native client ('Q' frames over
# persistent connections) drives a fast-mode cluster with
# SO_REUSEPORT-sharded listeners, replaying the closed-loop benchmark at
# each GOMAXPROCS width in -scaling-sweep. benchjson folds the summary's
# cores→aggregate-req/s curve into BENCH_results.json as a scaling
# section with speedup and parallel efficiency per point; widths this
# machine cannot provide are reported as skipped, never failed.
scalebench:
	@mkdir -p results
	$(GO) run ./cmd/loadgen -mode closed -concurrency 16 -n 20000 \
		-nodes 3 -masters 1 -fast -frame-client -listener-shards 2 \
		-scaling-sweep 1,2,4 -out results/live_scaling.json
	$(GO) test -bench=. -benchmem -run '^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -baseline bench/baseline.txt \
			-live results/live_scaling.json > BENCH_results.json

# Head-to-head policy comparison: every registered competitor replays
# identical traces through the simulator grid (CSV lands in
# results/csv/policy-tournament.csv), the live data plane repeats the
# sweep via loadgen's per-preset clusters, and both land in
# BENCH_results.json — the CSV as the Tournament section, the live sweep
# through -live.
tournament:
	@mkdir -p results/csv
	$(GO) run ./cmd/msbench -experiment tournament -csv results/csv
	$(GO) run ./cmd/loadgen -tournament competitors -fast -n 2000 -concurrency 16 \
		-nodes 4 -masters 1 -out results/live_tournament.json
	$(GO) test -bench=. -benchmem -run '^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -baseline bench/baseline.txt \
			-tournament results/csv/policy-tournament.csv \
			-live results/live_tournament.json > BENCH_results.json

# Autoscaling study: the online Theorem-1 autoscaler against a fixed
# peak-provisioned fleet on diurnal and flash-crowd workloads, run on
# the byte-deterministic sharded simulator (epoch-versioned shard maps,
# live promote/demote, slave power-off). The per-(workload, scenario)
# CSV — stretch, SLO attainment, node-hours, saved % — folds into
# BENCH_results.json as the Autoscale section, mirroring the tournament.
autoscale:
	@mkdir -p results/csv
	$(GO) run ./cmd/msbench -experiment autoscale -csv results/csv
	$(GO) test -bench=. -benchmem -run '^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -baseline bench/baseline.txt \
			-autoscale results/csv/autoscale-vs-fixed-fleet.csv > BENCH_results.json

# Regenerate every table and figure (minutes; table3 replays in real time).
experiments:
	$(GO) run ./cmd/msbench -experiment all

# Same, with machine-readable CSV next to the text output.
csv:
	$(GO) run ./cmd/msbench -experiment all -csv results/csv

clean:
	$(GO) clean ./...
