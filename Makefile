.PHONY: all build test fmt bench bench-smoke bench-check bench-layers bench-layers-diff perf-par fuzz clean

all: build

build:
	dune build

# Tier-1 gate: full build + every test suite (includes the bench smoke rule).
test:
	dune build && dune runtest

# Formatting gate. ocamlformat is not available in this environment, so the
# @fmt alias is scoped to dune files via (formatting (enabled_for dune)) in
# dune-project; run `dune build @fmt --auto-promote` to fix reported diffs.
fmt:
	dune build @fmt

# Every paper table/figure, the ablations and the perf-par scaling run.
bench:
	dune exec bench/main.exe -- all

# Fast self-check of the perf-par path (also part of `dune runtest`): the
# parallel sweep untimed on two kernels at j = 1 and 2, every kernel
# sweeping some points, and BENCH_parallel.json read back with the in-tree
# JSON reader.
bench-smoke:
	dune exec bench/main.exe -- smoke

# End-to-end benchmark self-check: quick cycles of every osrbench workload,
# traced and untraced; fails unless every metric is emitted, every oracle
# passes and per-cycle counts repeat across runs.
bench-check:
	python3 osrbench/run.py --self-check

# Per-layer profile of one workload: one traced 10-s run (seed 21) of
# W = tierup (default), steady or debug, then the per-layer table it wrote
# (self time, share and allocation per layer, and every span).  Run it on
# two checkouts for a before/after, e.g. `make bench-layers W=debug`.
W ?= tierup
bench-layers:
	@python3 osrbench/run.py --workload $(W) --seed 21 --seconds 10 --trace 1 > /dev/null
	@cat .bench_out/$(W)-seed21.layers.json

# Before/after of two per-layer tables, e.g. the .bench_out/debug-seed21.layers.json
# that `make bench-layers W=debug` wrote in two checkouts: per span, self
# ms/op and calls/op from A and B and the B/A ratio of self time, then the
# self ms/op of every layer and its B/A ratio.
bench-layers-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-layers-diff A=<layers.json> B=<layers.json>"; exit 2; }
	@python3 bench/layers_diff.py $(A) $(B)

# Parallel sweep scaling (j = 1, 2, 4, #cores) + BENCH_parallel.json.
perf-par:
	dune exec bench/main.exe -- perf-par

# Large-iteration seeded fault-injection fuzzing over every feasible
# corpus transition on both engines (a small fixed-seed slice of the same
# harness runs on every `dune runtest`). Seeds are deterministic: rerun
# with the printed seed to replay a failure.
fuzz:
	dune exec test/fuzz/fuzz_main.exe -- -n 2000 -seed0 1

clean:
	dune clean
