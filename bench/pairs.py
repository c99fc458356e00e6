#!/usr/bin/env python3
"""Alternating before/after pairs of one osrbench workload.

  python3 bench/pairs.py A W [--n 10] [--seconds 30] [--seed0 1000] [--b .]

A is a checkout of the parent commit and B (default: the current
directory) the change.  Each of the N pairs runs `osrbench/run.py
--workload W --seed S --seconds SECONDS` untraced once in each checkout,
with a fresh seed S = seed0 + i per pair; even pairs run A first, odd
pairs B first, so host drift does not favour one side.

For every end-to-end metric of B's BENCHMARK.json it prints each side's
median and quartiles, the ratio of the medians (B/A), how many pairs the
change wins (strictly better in the metric's direction; ties count for
neither), and whether a gain is shown: wins >= 9/10 of the pairs and a
median gap in the better direction larger than the parent's interquartile
range.  The wins are also split by which side ran first in the pair: a
workload can favour the side that runs first, or second, and the
alternation cancels that only over many pairs.  It also flags a median
worse than the parent's by more than the metric's bound, and says whether
both sides printed the same per-cycle counts (steps, fires, commits, ...)
on every seed.  Every run's metrics go to .bench_out/pairs-W.json in B.
"""

import argparse
import json
import os
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "osrbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = [line for line in r.stdout.splitlines() if line.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{checkout}: seed {seed}: no JSON result (exit code {r.returncode})")
    if r.returncode != 0 or not res.get("correct", False):
        sys.exit(f"{checkout}: seed {seed}: run failed (exit code {r.returncode})")
    res["counts"] = [line for line in lines if line.startswith("counts/cycle:")]
    return res


def quartiles(xs):
    """Q1, median and Q3 by linear interpolation between order statistics."""
    s = sorted(xs)

    def q(p):
        pos = p * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout of the parent commit")
    ap.add_argument("workload")
    ap.add_argument("--b", default=".", help="checkout of the change (default: .)")
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed0", type=int, default=1000)
    a = ap.parse_args()
    with open(os.path.join(a.b, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"A": a.a, "B": a.b}
    runs = {"A": [], "B": []}
    a_first = []
    for i in range(a.n):
        seed = a.seed0 + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        a_first.append(order[0] == "A")
        for side in order:
            runs[side].append(run(sides[side], a.workload, seed, a.seconds))
        print(f"pair {i + 1}/{a.n} (seed {seed}, {order[0]} first): " + ", ".join(
            f"{m['name']} {runs['A'][-1]['metrics'][m['name']]['value']:.4g} -> "
            f"{runs['B'][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics),
            file=sys.stderr, flush=True)
    print(f"{a.workload}: {a.n} alternating pairs of {a.seconds}-s runs, seeds "
          f"{a.seed0}..{a.seed0 + a.n - 1}; A = {a.a}, B = {a.b}")
    for side in ("A", "B"):
        att = sum(r["attempted"] for r in runs[side])
        fail = sum(r["failed"] for r in runs[side])
        print(f"  {side}: {fail} of {att} operations failed")
    same = sum(x["counts"] == y["counts"] for x, y in zip(runs["A"], runs["B"]))
    print(f"  per-cycle counts identical in {same} of {a.n} pairs")
    header = ["metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A",
              "B wins", "A first", "B first", "gain shown", "beyond bound"]
    rows = [header]
    n_a_first = sum(a_first)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        va = [r["metrics"][name]["value"] for r in runs["A"]]
        vb = [r["metrics"][name]["value"] for r in runs["B"]]
        a1, am, a3 = quartiles(va)
        b1, bm, b3 = quartiles(vb)
        won = [(y < x) if lower else (y > x) for x, y in zip(va, vb)]
        wins = sum(won)
        wins_a_first = sum(w for w, f in zip(won, a_first) if f)
        gap = (am - bm) if lower else (bm - am)
        shown = wins * 10 >= 9 * a.n and gap > a3 - a1
        worse = -gap > m["bound"] * abs(am)
        rows.append([name, f"{a1:.4g}", f"{am:.4g}", f"{a3:.4g}", f"{b1:.4g}", f"{bm:.4g}",
                     f"{b3:.4g}", f"{bm / am:.3f}" if am else "-", f"{wins}/{a.n}",
                     f"{wins_a_first}/{n_a_first}",
                     f"{wins - wins_a_first}/{a.n - n_a_first}",
                     "yes" if shown else "no", "YES" if worse else "no"])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  " + "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                               for i, (c, w) in enumerate(zip(r, widths))))
    os.makedirs(os.path.join(a.b, ".bench_out"), exist_ok=True)
    with open(os.path.join(a.b, ".bench_out", f"pairs-{a.workload}.json"), "w") as fh:
        json.dump({"workload": a.workload, "seconds": a.seconds, "seed0": a.seed0,
                   "A": [r["metrics"] for r in runs["A"]],
                   "B": [r["metrics"] for r in runs["B"]]}, fh)


if __name__ == "__main__":
    main()
