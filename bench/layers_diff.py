#!/usr/bin/env python3
"""Per-span and per-layer before/after of two osrbench per-layer tables.

  python3 bench/layers_diff.py A.layers.json B.layers.json

A and B are the .bench_out/<workload>-seed<N>.layers.json files that a
traced osrbench run writes (`make bench-layers` in two checkouts).  For
every span in either file, prints self ms/op and calls/op from A and B
and the B/A ratio of self time, largest A self time first, then the op
wall; ops are each file's `traced_ops`.  A second table gives the self
ms/op of every layer of the files' `layers` tables (a layer with no time
in either file is left out) and its B/A ratio.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        d = json.load(fh)
    ops = d["traced_ops"]
    if ops <= 0:
        sys.exit(f"{path}: no traced ops")
    spans = {s["name"]: (s["self_ms"] / ops, s["calls"] / ops) for s in d["spans"]}
    return d, spans


def ratio(b, a):
    return f"{b / a:.2f}x" if a > 0 else "-"


def table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                        for i, (c, w) in enumerate(zip(r, widths))).rstrip())


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    (da, a), (db, b) = load(argv[1]), load(argv[2])
    names = sorted(set(a) | set(b), key=lambda n: (-a.get(n, (0, 0))[0], n))
    rows = [("span", "A ms/op", "B ms/op", "B/A", "A calls/op", "B calls/op")]
    for n in names:
        (ams, acalls), (bms, bcalls) = a.get(n, (0, 0)), b.get(n, (0, 0))
        rows.append((n, f"{ams:.3f}", f"{bms:.3f}", ratio(bms, ams),
                     f"{acalls:.2f}", f"{bcalls:.2f}"))
    wa, wb = da["op_wall_ms_per_op"], db["op_wall_ms_per_op"]
    rows.append(("op wall", f"{wa:.3f}", f"{wb:.3f}", ratio(wb, wa),
                 str(da["traced_ops"]), str(db["traced_ops"])))
    table(rows)
    la = {l["layer"]: l["self_ms_per_op"] for l in da["layers"]}
    lb = {l["layer"]: l["self_ms_per_op"] for l in db["layers"]}
    rows = [("layer", "A ms/op", "B ms/op", "B/A")]
    for n in list(la) + [n for n in lb if n not in la]:
        ams, bms = la.get(n, 0), lb.get(n, 0)
        if ams > 0 or bms > 0:
            rows.append((n, f"{ams:.3f}", f"{bms:.3f}", ratio(bms, ams)))
    print()
    table(rows)


if __name__ == "__main__":
    main(sys.argv)
