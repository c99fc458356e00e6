.PHONY: all build test fmt loc observables bench bench-check bench-layers bench-layers-diff bench-pairs fuzz clean

all: build

build:
	dune build

# Tier-1 gate: full build + every test suite (includes the fuzz slice and
# the quick bench modes table2, fig7, fig8, table3 and ablate).
test:
	dune build && dune runtest

# Formatting gate. ocamlformat is not available in this environment, so the
# @fmt alias is scoped to dune files via (formatting (enabled_for dune)) in
# dune-project; run `dune build @fmt --auto-promote` to fix reported diffs.
fmt:
	dune build @fmt

# Non-blank lines of OCaml source (.ml and .mli): one row per lib/
# directory and the lib total, the frozen reference copies test/ref_*.ml,
# the rest of test/, and the total of all three.
loc:
	@find lib test -type f \( -name '*.ml' -o -name '*.mli' \) -exec awk ' \
	  FNR == 1 { split(FILENAME, p, "/"); \
	    g = p[1] == "lib" ? "lib/" p[2] : (FILENAME ~ /^test\/ref_[^\/]*\.ml$$/ ? "test/ref_*.ml" : "test (rest)") } \
	  NF { n[g]++; if (g ~ /^lib\//) lib++; total++ } \
	  END { for (g in n) if (g ~ /^lib\//) printf "%-16s %6d\n", g, n[g] | "sort"; close("sort"); \
	    printf "%-16s %6d\n%-16s %6d\n%-16s %6d\n%-16s %6d\n", "lib total", lib, \
	      "test/ref_*.ml", n["test/ref_*.ml"], "test (rest)", n["test (rest)"], "total", total }' {} +

# Every CLI observable a refactor must keep byte-identical, one file each
# under OUT: `osr-points --stats --remarks` forward and `--backward` and
# `show --opt` on the 12 kernels, `debug-study` on the 12 study groups, and
# the bench tables, figures and ablations.  A before/after check is
# `make observables OUT=a` in the parent and `make observables OUT=b` in
# the change, then `diff -r a b`.
OUT ?= .observables
KERNELS = bzip2 h264ref hmmer namd perlbench sjeng soplex bullet dcraw ffmpeg fhourstones vp8
STUDY_GROUPS = bzip2 gcc gobmk h264ref hmmer lbm libquantum mcf milc perlbench sjeng sphinx3
BENCH_MODES = table1 table2 table3 table4 table5 fig7 fig8 fig9 ablate
observables:
	@dune build bin/tinyvm_cli.exe bench/main.exe
	@mkdir -p $(OUT)
	@set -e; cli=_build/default/bin/tinyvm_cli.exe; \
	for k in $(KERNELS); do \
	  $$cli osr-points $$k --stats --remarks > $(OUT)/osr-points-fwd.$$k.txt; \
	  $$cli osr-points $$k --backward --stats --remarks > $(OUT)/osr-points-bwd.$$k.txt; \
	  $$cli show $$k --opt > $(OUT)/show-opt.$$k.txt; \
	done; \
	for g in $(STUDY_GROUPS); do $$cli debug-study $$g > $(OUT)/debug-study.$$g.txt; done; \
	for m in $(BENCH_MODES); do _build/default/bench/main.exe $$m > $(OUT)/bench.$$m.txt; done
	@echo "observables written to $(OUT)"

# Every paper table/figure and the ablations.
bench:
	dune exec bench/main.exe -- all

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

# Alternating before/after pairs of W (default tierup): N pairs (default 10)
# of untraced SECONDS-s runs (default 30) in the parent checkout A and in
# this one, seed SEED0 + i for pair i, the first side alternating; then per
# end-to-end metric each side's median and quartiles, the change's wins and
# whether a gain is shown (wins >= 9/10, median gap > the parent's IQR)
# (`bench/pairs.py`).
N ?= 10
SECONDS ?= 30
SEED0 ?= 1000
bench-pairs:
	@test -n "$(A)" || { echo "usage: make bench-pairs A=<parent checkout> [W=tierup] [N=10] [SECONDS=30] [SEED0=1000]"; exit 2; }
	@python3 bench/pairs.py $(A) $(W) --n $(N) --seconds $(SECONDS) --seed0 $(SEED0)

# Large-iteration seeded fault-injection fuzzing over every feasible
# corpus transition on both engines (a small fixed-seed slice of the same
# harness runs on every `dune runtest`). Seeds are deterministic: rerun
# with the printed seed to replay a failure.
fuzz:
	dune exec test/fuzz/fuzz_main.exe -- -n 2000 -seed0 1

clean:
	dune clean
