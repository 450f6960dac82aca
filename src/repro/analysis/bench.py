"""Continuous benchmark trajectory: deterministic scenario matrix,
schema-versioned ``BENCH_*.json`` snapshots, and regression gating.

The paper's claims are curves — pt2pt latency per codec configuration,
collective latency, application speedup — and this repository's
simulation is fully deterministic, so a benchmark run can be captured
as an *exact* JSON snapshot and later runs diffed against it with zero
tolerance on every simulated metric.  ``python -m repro bench`` wraps
this module; CI runs the quick matrix on every push and fails when any
simulated number drifts from the committed baseline
(``tests/data/BENCH_baseline.json``).

Design points:

* **One source of truth for scenarios** — the message-size sweeps and
  codec-config names used by the pytest-benchmark suite
  (``benchmarks/_common.py``) come from here, so the figures and the
  trajectory measure the same thing.
* **Byte-identical snapshots** — nothing wall-clock-dependent is
  collected by default (no timestamps, hostnames or durations) and
  floats are rounded to fixed precision, so two same-seed runs of
  :func:`collect` serialise identically.  Wall-clock capture is opt-in
  (``record_wall=True``) and never gates.
* **Critical-path attribution rides along** — each pt2pt scenario
  embeds the Fig 10 bucket percentages computed by
  :class:`~repro.analysis.critpath.CritPathAnalyzer`, so a regression
  report shows not just *that* latency moved but *where* the moved
  microseconds sit (kernel vs. wire vs. protocol).

Each scenario carries ``metrics`` (simulated), optional ``attribution``
and ``counters`` (a metrics-registry extract) — all gated exactly by
:func:`policy` — plus a non-gated ``histograms`` dump and the opt-in
``wall`` section.  Serialisation, loading and comparison are
:mod:`repro.analysis.snapshot`'s; docs/performance.md, "Snapshots and
gates", has the rules.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.analysis import snapshot
from repro.analysis.snapshot import EXACT, TIMING, Entry, Gate, rounded as _r
from repro.core.envconfig import env_flag
from repro.utils.units import KiB, MiB

__all__ = [
    "scenario_matrix", "scale_matrix", "sweep_sizes", "full_sweep_enabled",
    "named_config", "CONFIG_NAMES", "collect", "policy",
]

#: Fig 5/9/10 message sweep (paper: 256K..32M; default stops at 8M)
_SWEEP = (256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB)
_SWEEP_FULL = _SWEEP + (16 * MiB, 32 * MiB)
#: the quick (CI / --quick) subset
QUICK_SIZES = (256 * KiB, 1 * MiB)

#: pt2pt codec configurations tracked by the trajectory
PT2PT_CONFIGS = ("baseline", "naive-mpc", "mpc-opt", "zfp8", "zfp8-pipe")


def full_sweep_enabled() -> bool:
    """``REPRO_BENCH_FULL=1`` extends sweeps to the paper's full range."""
    return env_flag("REPRO_BENCH_FULL")


def sweep_sizes(full: Optional[bool] = None) -> list[int]:
    """The canonical message-size sweep (shared with ``benchmarks/``)."""
    if full is None:
        full = full_sweep_enabled()
    return list(_SWEEP_FULL if full else _SWEEP)


def _named_configs() -> dict[str, Callable]:
    from repro.core import CompressionConfig

    return {
        "baseline": CompressionConfig.disabled,
        "naive-mpc": CompressionConfig.naive_mpc,
        "naive-zfp": CompressionConfig.naive_zfp,
        "mpc-opt": CompressionConfig.mpc_opt,
        "zfp16": lambda: CompressionConfig.zfp_opt(16),
        "zfp8": lambda: CompressionConfig.zfp_opt(8),
        "zfp4": lambda: CompressionConfig.zfp_opt(4),
        "zfp8-pipe": lambda: CompressionConfig.zfp_opt(8).with_(
            pipeline=True, partitions=8),
    }


#: every config name accepted by the CLI and the scenario matrix
CONFIG_NAMES = tuple(sorted(_named_configs()))


def named_config(name: str):
    """Resolve a config name (the CLI's ``--config`` vocabulary)."""
    try:
        return _named_configs()[name]()
    except KeyError:
        raise KeyError(
            f"unknown config {name!r}; choose from {list(CONFIG_NAMES)}")


def scenario_matrix(quick: bool = True) -> list[Entry]:
    """The curated matrix: pt2pt per codec config, two collectives, one
    AWP weak-scaling point, and a chaos-overhead delta."""
    sizes = list(QUICK_SIZES) if quick else sweep_sizes(full=None)
    out = [
        Entry(f"pt2pt/{cfg}", "pt2pt",
              {"machine": "longhorn", "config": cfg, "sizes": sizes,
               "payload": "omb"})
        for cfg in PT2PT_CONFIGS
    ]
    coll = 256 * KiB if quick else 1 * MiB
    for op in ("bcast", "allgather"):
        out.append(Entry(
            f"{op}/mpc-opt", "collective",
            {"machine": "frontera-liquid", "op": op, "nodes": 2, "ppn": 2,
             "nbytes": coll, "payload": "dataset:msg_sppm",
             "config": "mpc-opt"}))
    # Keep-compressed vs per-hop-recompress ablation, per topology
    # preset: the multi-hop collectives relay wire images by default
    # ("keep"); "rehop" decodes and re-encodes at every hop.
    for machine in ("frontera-liquid", "longhorn"):
        for op in ("bcast", "allgather"):
            for mode, keep in (("keep", True), ("rehop", False)):
                out.append(Entry(
                    f"coll-ablation/{op}/{machine}/{mode}", "collective",
                    {"machine": machine, "op": op, "nodes": 2, "ppn": 2,
                     "nbytes": coll, "payload": "dataset:msg_sppm",
                     "config": "mpc-opt", "keep_compressed": keep}))
    # osu_allreduce: the two real algorithms under MPC-OPT (the ring
    # engages the hZCCL-style compressed-domain reduction) plus the
    # uncompressed baseline for scale.  4x the collective size so the
    # ring's per-rank chunks (nbytes / 4 ranks) stay above the
    # compression threshold.
    for name, cfg, algo in (
        ("allreduce/mpc-opt/ring", "mpc-opt", "ring"),
        ("allreduce/mpc-opt/rdouble", "mpc-opt", "recursive_doubling"),
        ("allreduce/baseline/ring", "baseline", "ring"),
    ):
        out.append(Entry(
            name, "collective",
            {"machine": "frontera-liquid", "op": "allreduce", "nodes": 2,
             "ppn": 2, "nbytes": 4 * coll, "payload": "dataset:msg_sppm",
             "config": cfg, "algorithm": algo}))
    out.append(Entry(
        "awp/4gpu-mpc-opt", "awp",
        {"machine": "frontera-liquid", "gpus": 4, "ppn": 2,
         "steps": 2, "local_shape": [16, 16, 64] if quick else [32, 32, 128],
         "config": "mpc-opt"}))
    out.append(Entry(
        "chaos/mpc-opt-corrupt", "chaos",
        {"machine": "longhorn", "config": "mpc-opt", "sizes": [256 * KiB],
         "iterations": 2, "corrupt_rate": 0.2, "seed": 1,
         "payload": "omb"}))
    return out


def scale_matrix() -> list[Entry]:
    """The large-rank matrix behind ``repro bench --scale`` and CI's
    scale-smoke job: hierarchical-topology runs sized so the whole
    matrix finishes inside a CI wall-clock budget, yet big enough that
    an engine or routing regression shows up as either a simulated-
    metric drift (gated, zero tolerance) or a budget blowout.

    Scale scenarios run untraced with zero warm-up — at 1024 ranks a
    ring allgather is ~1M rendezvous messages, and span recording plus
    a second warm-up invocation are what separate minutes from hours
    of host time.  The small 64-rank point exists so the tier-1 tests
    can exercise the same code path in milliseconds.
    """
    return [
        Entry(
            "scale/allgather-64/fat-tree", "collective",
            {"machine": "fat-tree", "op": "allgather", "nodes": 16,
             "ppn": 4, "nbytes": 4096, "payload": "omb",
             "config": "baseline", "warmup": 0, "trace": False}),
        Entry(
            "scale/allgather-1024/fat-tree", "collective",
            {"machine": "fat-tree", "op": "allgather", "nodes": 256,
             "ppn": 4, "nbytes": 4096, "payload": "omb",
             "config": "baseline", "warmup": 0, "trace": False}),
        Entry(
            "scale/awp-4096/dragonfly", "awp",
            {"machine": "dragonfly", "gpus": 4096, "ppn": 4, "steps": 2,
             "local_shape": [16, 16, 64], "config": "baseline",
             "surrogate": True, "trace": False}),
    ]


# -- scenario runners -------------------------------------------------------

def _registry_extract(metrics) -> dict:
    """The trajectory-worthy slice of a run's metrics registry."""
    out = {
        "mpi.sends": _r(metrics.counter_total("mpi.sends"), 0),
        "wire.bytes": _r(metrics.counter_total("wire.bytes"), 0),
        "pool.hit": _r(metrics.counter_total("pool.hit"), 0),
        "pool.miss": _r(metrics.counter_total("pool.miss"), 0),
    }
    bytes_in = metrics.counter_total("compress.bytes_in")
    bytes_out = metrics.counter_total("compress.bytes_out")
    if bytes_out:
        out["compression_ratio"] = _r(bytes_in / bytes_out, 4)
    hist = metrics.histogram("compress.kernel_us", codec="mpc")
    if not hist.count:
        hist = metrics.histogram("compress.kernel_us", codec="zfp")
    if hist.count:
        out["compress.kernel_us.p50"] = _r(hist.p50, 3)
        out["compress.kernel_us.p99"] = _r(hist.p99, 3)
    return out


def _histogram_extract(metrics) -> dict:
    """Full per-label histogram dump (per-rank queue depths, kernel
    timings) — bucket counts plus the streaming summary, rounded for
    diffability.  Rides in the snapshot as a non-gated ``histograms``
    section and is laid out columnar in RPRT snapshots."""
    out = {}
    for name, hist in sorted(metrics.as_dict()["histograms"].items()):
        out[name] = {
            "count": hist["count"],
            "sum": _r(hist["sum"], 4),
            "min": _r(hist["min"], 4),
            "max": _r(hist["max"], 4),
            "p50": _r(hist["p50"], 4),
            "p95": _r(hist["p95"], 4),
            "p99": _r(hist["p99"], 4),
            "buckets": hist["buckets"],
        }
    return out


def _run_pt2pt(params: dict) -> dict:
    from repro.analysis.critpath import CritPathAnalyzer
    from repro.mpi.cluster import Cluster
    from repro.network.presets import machine_preset
    from repro.omb.payload import make_payload
    from repro.omb.pt2pt import _pingpong

    config = named_config(params["config"])
    cluster = Cluster(machine_preset(params["machine"]), nodes=2,
                      gpus_per_node=1)
    metrics: dict[str, float] = {}
    last = None
    for nbytes in params["sizes"]:
        data = make_payload(params["payload"], nbytes)
        res = cluster.run(_pingpong, config=config, args=(data, 1, 1))
        metrics[f"latency_us[{nbytes}]"] = _r(res.values[0] * 1e6)
        last = res
    result = {"metrics": metrics,
              "counters": _registry_extract(last.tracer.metrics),
              "histograms": _histogram_extract(last.tracer.metrics)}
    attribution = CritPathAnalyzer(last.tracer).aggregate_attribution()
    result["attribution"] = {k: _r(v, 4) for k, v in attribution.items()}
    return result


def _run_collective(params: dict) -> dict:
    from repro.omb.collective import (osu_allgather, osu_allreduce,
                                      osu_alltoall, osu_bcast)

    fns = {"bcast": osu_bcast, "allgather": osu_allgather,
           "alltoall": osu_alltoall, "allreduce": osu_allreduce}
    fn = fns[params["op"]]
    config = named_config(params["config"])
    if "keep_compressed" in params:
        config = config.with_(keep_compressed=params["keep_compressed"])
    kwargs = {}
    if params["op"] == "allreduce" and params.get("algorithm"):
        kwargs["algorithm"] = params["algorithm"]
    if "warmup" in params:
        kwargs["warmup"] = params["warmup"]
    if "trace" in params:
        kwargs["trace"] = params["trace"]
    row = fn(machine=params["machine"], nodes=params["nodes"],
             ppn=params["ppn"], nbytes=params["nbytes"],
             payload=params["payload"], config=config, **kwargs)
    return {"metrics": {"latency_us": _r(row.latency_us)}}


def _run_awp(params: dict) -> dict:
    from repro.apps.awp import run_awp

    r = run_awp(machine=params["machine"], gpus=params["gpus"],
                gpus_per_node=params["ppn"],
                local_shape=tuple(params["local_shape"]),
                steps=params["steps"], config=named_config(params["config"]),
                surrogate=params.get("surrogate", False),
                trace=params.get("trace", True))
    return {"metrics": {
        "time_per_step_us": _r(r.time_per_step * 1e6),
        "comm_fraction_pct": _r(100.0 * r.comm_fraction, 4),
        "gflops": _r(r.gflops, 4),
    }}


def _run_chaos(params: dict) -> dict:
    from repro.faults import FaultPlan
    from repro.faults.chaos import run_chaos

    plan = FaultPlan(seed=params["seed"], corrupt_rate=params["corrupt_rate"])
    report = run_chaos(machine=params["machine"],
                       sizes=tuple(params["sizes"]),
                       config=named_config(params["config"]), plan=plan,
                       payload=params["payload"],
                       iterations=params["iterations"])
    res = report.results[0]
    return {"metrics": {
        "mismatches": _r(report.total_mismatches, 0),
        "overhead_us": _r(res.overhead * 1e6),
        "faults_injected": _r(sum(res.faults_injected.values()), 0),
        "retransmits": _r(res.recovery_events.get("retransmit", 0), 0),
    }}


_RUNNERS = {"pt2pt": _run_pt2pt, "collective": _run_collective,
            "awp": _run_awp, "chaos": _run_chaos}


def collect(quick: bool = True, label: str = "local",
            only: Optional[str] = None, record_wall: bool = False,
            progress: Optional[Callable[[str], None]] = None,
            scale: bool = False) -> dict:
    """Run the scenario matrix and build the snapshot document.

    ``only`` filters scenarios by substring.  ``record_wall`` adds an
    advisory per-scenario host wall-clock section (breaks byte-identity
    between runs — leave off for gating snapshots).  ``scale`` swaps
    in :func:`scale_matrix` (the 1k+-rank hierarchical-topology runs;
    gated against ``tests/data/BENCH_scale_baseline.json``) and stamps
    ``mode: "scale"`` so scale snapshots never compare against the
    quick/full baselines by accident.
    """
    def run(sc: Entry) -> dict:
        # Advisory host wall-clock only; never enters gated snapshots
        # (record_wall defaults off), so the wall-clock read is safe.
        t0 = time.perf_counter()  # repro: allow-RPR001
        result = _RUNNERS[sc.kind](sc.params)
        if record_wall:
            result["wall"] = {"seconds": time.perf_counter() - t0}  # repro: allow-RPR001
        return result

    return snapshot.collect(
        "bench", scale_matrix() if scale else scenario_matrix(quick), run,
        only, progress, label=label,
        mode="scale" if scale else ("quick" if quick else "full"))


# -- gate policy ---------------------------------------------------------------

_WALL = Gate(TIMING, worse=+1, soft=True)


def policy(entry: str, section: str, metric: str) -> Optional[Gate]:
    """Zero tolerance on every simulated number — the simulation is
    deterministic, so *any* movement is a real change to the performance
    model or the protocol.  The opt-in wall clock is reported, never
    gating; ``histograms`` and ``params`` are not compared."""
    if section in ("metrics", "attribution", "counters"):
        return Gate(EXACT)
    if (section, metric) == ("wall", "seconds"):
        return _WALL
    return None
