#!/usr/bin/env python3
"""Build and run the OSR benchmark (osrbench/main.ml).

Run from the repository root:

  python3 osrbench/run.py --workload tierup --seed 1 --seconds 10 --trace 0
  python3 osrbench/run.py --self-check

The benchmark executable is built from source in release mode under
.bench_build/; run records, Chrome traces and per-layer tables go to
.bench_out/.  The last line of standard output is the JSON result.
--self-check runs two short cycles of every workload listed in
BENCHMARK.json, traced and untraced, and checks that every named metric is
emitted, every oracle passes, and the exact per-cycle counts repeat across
runs of one seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "osrbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELF_CHECK_SEED = 7


def log(msg):
    print("osrbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("dune-project and lib/ not found: run from the repository root")
        sys.exit(2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache=disabled", "./osrbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        sys.exit(2)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, f) for top in ("lib", "osrbench")
                   for d, _, files in os.walk(top) for f in files)
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_exe(args):
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        sys.exit(3)
    return r.returncode, r.stdout


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def self_check(common):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        counts = []
        for trace in (0, 1, 0):
            tag = f"{workload} --trace {trace}"
            code, out = run_exe(["--workload", workload, "--seed", str(SELF_CHECK_SEED),
                                 "--trace", str(trace), "--quick"] + common)
            res = last_json(out)
            if code != 0 or res is None:
                problems.append(f"{tag}: exit code {code}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: an oracle failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                problems.append(f"{tag}: metrics differ from BENCHMARK.json "
                                f"(missing {missing}, extra {extra}, or units)")
            record = os.path.join(OUT_DIR, f"{workload}-seed{SELF_CHECK_SEED}-trace{trace}.json")
            with open(record) as fh:
                counts.append(json.dumps(json.load(fh)["counts_per_cycle"], sort_keys=True))
        if len(counts) == 3 and len(set(counts)) != 1:
            problems.append(f"{workload}: per-cycle counts differ between runs of one seed")
        print(f"self-check {workload}: " + ("ok" if not problems else "FAILED"), flush=True)
    for p in problems:
        log(p)
    print(json.dumps({"self_check": "failed" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description="Build and run the OSR benchmark.")
    ap.add_argument("--workload", choices=("tierup", "steady", "debug"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        ap.error("--workload is required")
    build()
    common = ["--commit", source_revision(), "--profile", "release",
              "--cores", str(os.cpu_count() or 1), "--out-dir", OUT_DIR]
    if a.self_check:
        sys.exit(self_check(common))
    code, out = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace)] + common)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
