"""The cross-commit benchmark: four workloads, both clocks, host time
attributed to every layer.  See ``perfbench/README.md``.

    python3 perfbench/run.py                       # every workload, end to end
    python3 perfbench/run.py --traced --out A.json # ... plus per-layer metrics
    python3 perfbench/run.py --workload codec-stream --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Each workload runs in fresh interpreters (``child.py``), one after
another, so peak RSS, the process-wide codec cache and import cost are
per workload.  Results go to stdout and ``--out`` only, never into the
repository.  The last line of stdout is one JSON object; for a single
``--workload`` it holds the metrics of the ``--trace`` mode asked for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: fresh launches whose set-up time is measured (the measuring launch
#: and this many minus one set-up-only launches): single launches
#: varied up to 2x on first-touch and disk-cache effects
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 170

#: glibc malloc serves every array from the heap, never through mmap,
#: and never trims the heap, so freed memory stays in the process.  In
#: this VM the first touch of a page is served by the hypervisor and
#: costs up to 0.6 ms, so arrays that went back to the OS after every
#: repetition made single repetitions 2-6x slower at random (all of it
#: kernel time).
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0",
              "MALLOC_TRIM_THRESHOLD_": str(4 << 30)}

#: the paper's headline latency reductions (Fig 9 at 16 MiB on
#: Longhorn; Fig 11 bcast), printed beside ours so a simulated speed-up
#: always stands next to the model's distance from the reference
PAPER_REDUCTION_PCT = {"core.sim_reduction_pct.mpc-opt": 62.5,
                       "core.sim_reduction_pct.zfp8": 83.1,
                       "core.sim_reduction_pct.zfp8-pipe": 83.1,
                       "mpi.sim_reduction_pct.bcast": 57.0}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def launch(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run ``child.py`` in a fresh single-threaded interpreter and
    return the object it printed."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", **MALLOC_ENV)
    proc = subprocess.run(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_end_to_end(workload: str, seed: int, seconds: float, small=()) -> dict:
    """End-to-end metrics, tracing and profiling off."""
    res = launch(workload, seed, seconds, *small)
    setups = [res["end_to_end"]["setup_s"]] + [
        launch(workload, seed, 0, "--setup-only", *small)["setup_s"]
        for _ in range(SETUP_LAUNCHES - 1)]
    res["end_to_end"]["setup_s"] = median(setups)
    return res


def run_layers(workload: str, seed: int, seconds: float, small=()) -> dict:
    """Per-layer metrics, from an interpreter of their own."""
    return launch(workload, seed, seconds, "--layers", *small)


def units_of(spec: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = (f"   (paper: {PAPER_REDUCTION_PCT[name]}%)"
                if name in PAPER_REDUCTION_PCT else "")
        print(f"  {workload:15s} {name:{width}s} {shown:>14s} {units[name]}{note}")


def contract_line(res: dict, section: str, spec: dict) -> str:
    """The result object of one workload in one ``--trace`` mode.  The
    driver wants every declared metric of the mode in it, so here, and
    only here, a per-layer metric the workload does not measure is
    written as 0; the printed table and ``--out`` leave it out."""
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res[section].get(m["name"], 0),
                                "unit": m["unit"]} for m in spec[section]},
    })


def corrupt_delivery(obj, skip: int = 1):
    """A copy of a nested output with one bit flipped in the array
    after the first ``skip`` (slot 0 of an allgather is the rank's own
    block, not a delivery); ``(copy, arrays still to skip or -1)``."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        if skip:
            return obj, skip - 1
        bad = obj.copy()
        bad.view(np.uint8).reshape(-1)[0] ^= 1
        return bad, -1
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = list(enumerate(obj))
    else:
        return obj, skip
    for i, (key, value) in enumerate(items):
        value, skip = corrupt_delivery(value, skip)
        if skip < 0:
            items[i] = (key, value)
            values = [v for _, v in items]
            return (dict(items) if isinstance(obj, dict) else type(obj)(values)), -1
    return obj, skip


def selftest(spec: dict) -> int:
    """Every workload at reduced size with one repetition: the names
    printed are the names declared, a corrupted delivery is counted,
    and ``compare.py`` flags a slowdown beyond the bound."""
    import copy

    import compare

    def require(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    failures: list = []
    names = [w["name"] for w in spec["workloads"]]
    declared = {m["name"] for m in spec["per_layer"]}
    small = ("--small",)
    results, reported = {}, set()
    for name in names:
        res = results[name] = run_layers(name, 1, 0, small)
        require(list(res["end_to_end"]) == [m["name"] for m in spec["end_to_end"]],
                f"{name}: end-to-end metric names are those of BENCHMARK.json")
        require(set(res["per_layer"]) <= declared,
                f"{name}: every per-layer metric reported is declared in BENCHMARK.json")
        reported |= set(res["per_layer"])
        require(res["failed"] == 0 and res["attempted"] >= 1,
                f"{name}: {res['attempted']} operations, none failed")
        require(res["per_layer"]["mpi.sends"] == res["per_layer"]["run.msgs_per_rep"],
                f"{name}: the message count matches the traced mpi.sends")
    require(reported == declared,
            "every per-layer metric declared is reported by some workload, "
            f"missing: {sorted(declared - reported)}")
    require(launch(names[0], 1, 0, "--setup-only", *small)["setup_s"] > 0,
            "a set-up-only launch reports setup_s")

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from child import SHRINK_SELFTEST
    from workloads import WORKLOADS

    require(list(WORKLOADS) == names, "workload names are those of BENCHMARK.json")
    for name, cls in WORKLOADS.items():
        wl = cls(1, shrink=SHRINK_SELFTEST)
        try:
            out = wl.run()
            wl.keep_from_warmup(out)
            wl.prepare_references()
            clean = wl.check(out)
            out.values, left = corrupt_delivery(out.values)
            require(left < 0 and clean == 0 and wl.check(out) > 0,
                    f"{name}: a corrupted received payload raises error_rate")
        finally:
            wl.close()

    # slowdowns on either side of the metric's own bound
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "host_cpu_s")
    base = {"seed": 1, "workloads": results}
    flagged = {}
    for factor in (1 + 0.5 * bound, 1 + 1.5 * bound):
        slow = copy.deepcopy(base)
        slow["workloads"][names[0]]["end_to_end"]["host_cpu_s"] *= factor
        flagged[factor] = [r[:2] for r in compare.compare(spec, base, slow)
                           if r[5] != "ok"]
    require(all(r[5] == "ok" for r in compare.compare(spec, base, base)),
            "compare.py accepts a set against itself")
    require(list(flagged.values()) == [[], [(names[0], "host_cpu_s")]],
            f"compare.py accepts host_cpu_s +{0.5 * bound:.0%} and flags "
            f"+{1.5 * bound:.0%}, and only that")
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=20210517,
                    help="derives every payload seed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="length of the timed loop per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="both: end-to-end first, then the per-layer pass")
    ap.add_argument("--out", help="also write the result set to this JSON file")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro is not in this checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(spec)

    units = units_of(spec)
    selected = [args.workload] if args.workload else names
    results, failed = {}, 0
    passes = []
    if args.traced or args.trace == 0:
        passes.append((run_end_to_end, "end_to_end"))
    if args.traced or args.trace == 1:
        passes.append((run_layers, "per_layer"))
    for workload in selected:
        res = {"attempted": 0, "failed": 0}
        for run_pass, section in passes:
            launched = run_pass(workload, args.seed, args.seconds)
            res[section] = launched[section]
            res["attempted"] += launched["attempted"]
            res["failed"] += launched["failed"]
            print_metrics(workload, res[section], units)
        print(f"  {workload:15s} error_rate {res['failed']}/{res['attempted']}")
        failed += res["failed"]
        results[workload] = res
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, fh, indent=1)
    if args.workload:
        section = "per_layer" if args.trace == 1 else "end_to_end"
        print(contract_line(results[args.workload], section, spec))
    else:
        print(json.dumps({
            "correct": failed == 0, "failed": failed,
            "attempted": sum(r["attempted"] for r in results.values()),
            "workloads": selected}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
