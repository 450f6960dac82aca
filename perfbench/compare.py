"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the relative
change from A to B, and a verdict under that metric's own bound from
``BENCHMARK.json``:

* ``ok``              B is not worse than A by more than the bound;
* ``worse``           it is;
* ``exact-mismatch``  simulated time (or, in traced sets, a count-type
                      layer metric) differs between two sets made from
                      the same seed.  The simulator is deterministic:
                      a host-speed change must leave these identical,
                      and a modelling change moves them on purpose.

Failed operations in either set are ``worse``.  Exits non-zero on any
``worse`` or ``exact-mismatch``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulated quantities repeat to this relative tolerance
EXACT_RTOL = 1e-9
EXACT_METRICS = ("sim_latency_us",)


def relative_change(a: float, b: float) -> float:
    return (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))


def verdict(metric: dict, a: float, b: float, same_seed: bool) -> str:
    change = relative_change(a, b)
    if metric["name"] in EXACT_METRICS and same_seed:
        return "ok" if abs(change) <= EXACT_RTOL else "exact-mismatch"
    worsening = change if metric["better"] == "lower" else -change
    return "worse" if worsening > metric["bound"] else "ok"


def compare(spec: dict, set_a: dict, set_b: dict) -> list:
    """Rows ``(workload, metric, a, b, change, verdict)``."""
    same_seed = set_a["seed"] == set_b["seed"]
    count_metrics = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"
                     and m["name"] != "run.reps"]  # the timed loop's length varies
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        a, b = set_a["workloads"].get(name), set_b["workloads"].get(name)
        if a is None or b is None:
            continue
        if "end_to_end" in a and "end_to_end" in b:
            for m in spec["end_to_end"]:
                va, vb = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
                rows.append((name, m["name"], va, vb, relative_change(va, vb),
                             verdict(m, va, vb, same_seed)))
        ra, rb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        rows.append((name, "error_rate", ra, rb, relative_change(ra, rb),
                     "worse" if a["failed"] or b["failed"] else "ok"))
        if same_seed and "per_layer" in a and "per_layer" in b:
            for metric in count_metrics:
                # a count the workload does not report counted nothing
                va, vb = a["per_layer"].get(metric, 0), b["per_layer"].get(metric, 0)
                if va != vb:
                    rows.append((name, metric, va, vb, relative_change(va, vb),
                                 "exact-mismatch"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = []
    for path in argv:
        with open(path) as fh:
            sets.append(json.load(fh))
    rows = compare(spec, *sets)
    print(f"{'workload':15s} {'metric':28s} {'A':>14s} {'B':>14s} {'change':>9s}  verdict")
    for workload, metric, a, b, change, v in rows:
        print(f"{workload:15s} {metric:28s} {a:14.6g} {b:14.6g} {change:+9.2%}  {v}")
    bad = [r for r in rows if r[5] != "ok"]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
