"""Continuous benchmark trajectory: deterministic scenario matrices,
schema-versioned ``BENCH_*.json`` snapshots, and regression gating.

The paper's claims are curves — pt2pt latency per codec configuration,
collective latency, application speedup — and this repository's
simulation is fully deterministic, so a benchmark run can be captured
as an *exact* JSON snapshot and later runs diffed against it with zero
tolerance on every simulated metric.  ``python -m repro bench`` wraps
this module; CI gates each matrix against its baseline in
``tests/data/``: the quick one (:func:`scenario_matrix`,
``BENCH_baseline.json``), the paper's (:func:`paper_matrix`, the default,
``BENCH_full_baseline.json``: ``tests/test_paper_claims.py`` asserts
the paper's claims on it) and the scale one (:func:`scale_matrix`).

Design points:

* **One way to vary a config** — an entry names a config of
  :func:`named_config` and may replace its fields with a ``with`` dict.
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
from repro.utils.units import KiB, MiB, fmt_bytes

__all__ = [
    "scenario_matrix", "paper_matrix", "scale_matrix", "named_config",
    "CONFIG_NAMES", "reduction_pct", "collect", "policy",
]

#: Fig 5/6/8/9/10 message sweep (the paper's runs go on to 32M)
SWEEP = (256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB)
#: the quick (CI / --quick) subset
QUICK_SIZES = (256 * KiB, 1 * MiB)

#: pt2pt codec configurations tracked by the trajectory
PT2PT_CONFIGS = ("baseline", "naive-mpc", "mpc-opt", "zfp8", "zfp8-pipe")


def reduction_pct(baseline: float, value: float) -> float:
    """Percent latency reduction vs. baseline (positive = faster)."""
    return 100.0 * (1.0 - value / baseline) if baseline else 0.0


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


def scenario_matrix() -> list[Entry]:
    """The quick matrix: pt2pt per codec config, two collectives, one
    AWP weak-scaling point, and a chaos-overhead delta."""
    out = [
        Entry(f"pt2pt/{cfg}", "pt2pt",
              {"machine": "longhorn", "config": cfg, "sizes": list(QUICK_SIZES),
               "payload": "omb"})
        for cfg in PT2PT_CONFIGS
    ]
    coll = 256 * KiB
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
         "steps": 2, "local_shape": [16, 16, 64],
         "config": "mpc-opt"}))
    out.append(Entry(
        "chaos/mpc-opt-corrupt", "chaos",
        {"machine": "longhorn", "config": "mpc-opt", "sizes": [256 * KiB],
         "iterations": 2, "corrupt_rate": 0.2, "seed": 1,
         "payload": "omb"}))
    return out


#: Fig 9's five configurations, and the paper's Fig 11 datasets
FIG9_CONFIGS = ("baseline", "mpc-opt", "zfp16", "zfp8", "zfp4")
FIG11_DATASETS = ("msg_bt", "msg_sppm", "msg_sweep3d", "obs_info")


def paper_matrix() -> list[Entry]:
    """One entry per point the paper's figures and tables, the ablations,
    the extensions and the ring-allreduce crossover measure, named after
    the first figure that reads it, at sizes a CI job runs in minutes
    (``repro latency/bcast/awp`` reach any size)."""
    from repro.datasets import dataset_names

    out = []

    def add(name: str, kind: str, changes=None, **params) -> None:
        out.append(Entry(name, kind,
                         {**params, "with": changes} if changes else params))

    def pt2pt(name, machine, config, sizes=SWEEP, payload="wave", **extra):
        add(name, "pt2pt", machine=machine, config=config, sizes=list(sizes),
            payload=payload, **extra)

    def coll(name, op, nodes, ppn, nbytes, dataset, config, **extra):
        add(name, "collective", machine="frontera-liquid", op=op,
            nodes=nodes, ppn=ppn, nbytes=nbytes,
            payload=f"dataset:{dataset}", config=config, **extra)

    def awp(name, machine, gpus, ppn, config, local=(96, 96, 512), steps=3,
            **extra):
        add(name, "awp", machine=machine, gpus=gpus, ppn=ppn, steps=steps,
            local_shape=list(local), config=config, **extra)

    # Fig 2: osu_bw saturating EDR; AWP's compute/communication split
    add("fig2a/bw", "bw", machine="longhorn", window=8,
        sizes=[64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 8 * MiB])
    for gpus in (4, 8, 16):
        awp(f"fig2b/{gpus}gpu", "frontera-liquid", gpus, 4, "baseline",
            local=(64, 64, 256), surrogate=True)
    # Fig 5/6/8: naive integration vs OPT on the wave payload
    pt2pt("fig5/baseline", "longhorn", "baseline")
    pt2pt("fig5/naive-mpc", "longhorn", "naive-mpc", breakdown=True)
    pt2pt("fig5/naive-zfp16", "longhorn", "naive-zfp")
    pt2pt("fig6/mpc-opt", "longhorn", "mpc-opt", breakdown=True)
    pt2pt("fig8/naive-zfp16", "frontera-liquid", "naive-zfp", breakdown=True)
    pt2pt("fig8/zfp16", "frontera-liquid", "zfp16", breakdown=True)
    # Fig 9's four panels on OMB dummy data; Fig 10 reads 9b's breakdowns
    for panel, machine, inter in (("fig9a", "longhorn", True),
                                  ("fig9b", "frontera-liquid", True),
                                  ("fig9c", "longhorn", False),
                                  ("fig9d", "frontera-liquid", False)):
        for cfg in FIG9_CONFIGS:
            extra = {} if inter else {"inter_node": False}
            if panel == "fig9b" and cfg in ("mpc-opt", "zfp4"):
                extra["breakdown"] = True
            pt2pt(f"{panel}/{cfg}", machine, cfg, payload="omb", **extra)
    # Fig 11: bcast and allgather on the datasets, 8 nodes x 2 ppn
    for op in ("bcast", "allgather"):
        for ds in FIG11_DATASETS:
            for cfg in FIG9_CONFIGS:
                coll(f"fig11/{op}/{ds}/{cfg}", op, 8, 2, 4 * MiB, ds, cfg)
    # Fig 12/13: AWP weak scaling (surrogate faces, 4-partition MPC-OPT)
    for fig, machine, shapes in (
            ("fig12", "frontera-liquid", [(ppn, g) for ppn in (2, 4)
                                          for g in (4, 8, 16)]),
            ("fig13", "lassen", [(4, g) for g in (8, 16, 32, 64)])):
        for ppn, gpus in shapes:
            for cfg in ("baseline", "mpc-opt", "zfp16", "zfp8"):
                awp(f"{fig}/{ppn}ppn/{gpus}gpu/{cfg}", machine, gpus, ppn,
                    cfg, surrogate=True,
                    changes={"partitions": 4} if cfg == "mpc-opt" else None)
    # Fig 14: Dask transpose-sum on RI2 (the paper's 10K/1K, scaled)
    for workers in (2, 4, 6, 8):
        for cfg in ("baseline", "zfp16", "zfp8"):
            add(f"fig14/{workers}w/{cfg}", "dask", machine="ri2",
                workers=workers, dims=5120, chunk=1024, config=cfg)
    # Table III: MPC ratio at each dimensionality (the paper tunes it)
    # and ZFP(16), on 5% of each dataset; the scorecard's sppm ratio
    mpc_dims = [[f"mpc-d{d}", "mpc", {"dimensionality": d}, "float32"]
                for d in (1, 2, 3, 4)]
    for ds in dataset_names():
        add(f"table3/{ds}", "codec", data=f"dataset:{ds}", scale=0.05,
            codecs=mpc_dims + [["zfp16", "zfp", {"rate": 16}, "float32"]])
    add("table3/msg_sppm-scorecard", "codec", data="dataset:msg_sppm",
        scale=0.04, codecs=mpc_dims[:1])
    # Ablations: the OPT optimisations one at a time
    pt2pt("ablation/no-gdrcopy", "longhorn", "mpc-opt",
          changes={"use_gdrcopy": False})
    pt2pt("ablation/no-pool", "longhorn", "mpc-opt", breakdown=True,
          changes={"use_buffer_pool": False})
    for p in (1, 2, 4, 8):
        pt2pt(f"ablation/partitions/p{p}", "longhorn", "mpc-opt",
              sizes=(256 * KiB, 2 * MiB, 8 * MiB), changes={"partitions": p})
    threshold_sizes = (64 * KiB, 512 * KiB, 4 * MiB)
    pt2pt("ablation/threshold/baseline", "frontera-liquid", "baseline",
          sizes=threshold_sizes, payload="omb")
    for t in (16 * KiB, 128 * KiB, 1 * MiB, 8 * MiB):
        pt2pt(f"ablation/threshold/{fmt_bytes(t)}", "frontera-liquid", "zfp8",
              sizes=threshold_sizes, changes={"threshold": t})
    rate_awp = dict(local=(32, 32, 128), steps=6, energy=True)
    awp("ablation/zfp-rate/baseline", "frontera-liquid", 4, 2, "baseline",
        **rate_awp)
    for rate in (16, 8, 6, 4):
        awp(f"ablation/zfp-rate/{rate}", "frontera-liquid", 4, 2, "zfp16",
            **rate_awp, changes={"zfp_rate": rate, "threshold": 20 * KiB})
    # Extensions: every Table I codec, SZ as the transport codec,
    # compressed alltoall/allreduce, pipelining, ZFP's 2-D mode
    add("ext/codecs", "codec", data="dataset:msg_sweep3d", scale=0.05,
        codecs=[["mpc[1]", "mpc", {"dimensionality": 1}, "float32"],
                ["zfp[16]", "zfp", {"rate": 16}, "float32"],
                ["zfp[8]", "zfp", {"rate": 8}, "float32"],
                ["sz[0.001]", "sz", {"error_bound": 1e-3}, "float32"],
                ["gfc", "gfc", {}, "float64"], ["fpc", "fpc", {}, "float32"]])
    pt2pt("ext/sz/baseline", "frontera-liquid", "baseline", sizes=[4 * MiB])
    pt2pt("ext/sz/sz", "frontera-liquid", "baseline", sizes=[4 * MiB],
          changes={"enabled": True, "algorithm": "sz"})
    for op in ("alltoall", "allreduce"):
        for cfg in ("baseline", "mpc-opt"):
            coll(f"ext/{op}/{cfg}", op, 4, 2, 8 * MiB, "msg_sppm", cfg)
    for label, cfg, changes in (
            ("baseline", "baseline", {}), ("zfp8", "zfp8", {}),
            ("zfp8-pipe", "zfp8-pipe", {}), ("mpc-opt", "mpc-opt", {}),
            ("mpc-pipe", "mpc-opt", {"partitions": 8, "pipeline": True})):
        pt2pt(f"ext/pipeline/{label}", "frontera-liquid", cfg,
              sizes=(2 * MiB, 8 * MiB, 16 * MiB), payload="omb",
              changes=changes)
    add("ext/zfp2d", "codec", data="field2d", codecs=[
        [f"{name}[{rate}]", name, {"rate": rate}, "float32"]
        for rate in (4, 8, 16) for name in ("zfp", "zfp2d")])
    # Where compression stops paying: ring allreduce chunks of size/p
    for nbytes in (1 * MiB, 8 * MiB, 32 * MiB):
        for nodes, ppn in ((2, 2), (8, 1)):
            for cfg in ("baseline", "mpc-opt", "zfp8"):
                coll(f"crossover/allreduce/{fmt_bytes(nbytes)}/{nodes}x{ppn}/"
                     f"{cfg}", "allreduce", nodes, ppn, nbytes, "msg_sppm",
                     cfg, algorithm="ring")
    return out


def scale_matrix() -> list[Entry]:
    """The large-rank matrix behind ``repro bench --scale`` and CI's
    scale-smoke job: hierarchical-topology runs sized so the whole
    matrix finishes inside a CI wall-clock budget, yet big enough that
    an engine or routing regression shows up as either a simulated-
    metric drift (gated, zero tolerance) or a budget blowout.

    Scale scenarios run untraced with zero warm-up — at 1024 ranks a
    ring allgather of 4 KiB blocks is ~1M eager messages, and span
    recording plus a second warm-up invocation are what separate
    minutes from hours of host time.  The small 64-rank point exists so
    the tier-1 tests can exercise the same code path in milliseconds.
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


def _config(params: dict):
    """The entry's named config with its ``with`` fields replaced (the
    quick matrix's committed params spell ``keep_compressed`` apart)."""
    changes = dict(params.get("with", {}))
    if "keep_compressed" in params:
        changes["keep_compressed"] = params["keep_compressed"]
    return named_config(params["config"]).with_(**changes)


def _run_pt2pt(params: dict) -> dict:
    """osu_latency over ``sizes``; ``breakdown`` adds each span
    category's one-way microseconds per size (Figs 6/8/10)."""
    from repro.analysis.critpath import CritPathAnalyzer
    from repro.omb.payload import make_payload
    from repro.omb.pt2pt import _make_cluster, _pingpong

    config = _config(params)
    cluster = _make_cluster(params["machine"], params.get("inter_node", True))
    metrics: dict[str, float] = {}
    last = None
    for nbytes in params["sizes"]:
        data = make_payload(params["payload"], nbytes)
        res = cluster.run(_pingpong, config=config, args=(data, 1, 1))
        metrics[f"latency_us[{nbytes}]"] = _r(res.values[0] * 1e6)
        if params.get("breakdown"):
            for cat, seconds in res.breakdown().items():
                metrics[f"{cat}_us[{nbytes}]"] = _r(seconds * 1e6 / 2)
        last = res
    result = {"metrics": metrics,
              "counters": _registry_extract(last.tracer.metrics),
              "histograms": _histogram_extract(last.tracer.metrics)}
    attribution = CritPathAnalyzer(last.tracer).aggregate_attribution()
    result["attribution"] = {k: _r(v, 4) for k, v in attribution.items()}
    return result


def _run_bw(params: dict) -> dict:
    from repro.omb import osu_bw

    rows = osu_bw(params["machine"], sizes=params["sizes"],
                  window=params["window"])
    return {"metrics": {f"bandwidth_gb_s[{r.nbytes}]":
                        _r(r.breakdown["bandwidth"] / 1e9) for r in rows}}


def _run_collective(params: dict) -> dict:
    from repro.omb.collective import (osu_allgather, osu_allreduce,
                                      osu_alltoall, osu_bcast)

    fns = {"bcast": osu_bcast, "allgather": osu_allgather,
           "alltoall": osu_alltoall, "allreduce": osu_allreduce}
    fn = fns[params["op"]]
    kwargs = {k: params[k] for k in ("algorithm", "warmup", "trace")
              if k in params}
    row = fn(machine=params["machine"], nodes=params["nodes"],
             ppn=params["ppn"], nbytes=params["nbytes"],
             payload=params["payload"], config=_config(params), **kwargs)
    return {"metrics": {"latency_us": _r(row.latency_us)}}


def _run_awp(params: dict) -> dict:
    """``energy`` adds the solution diagnostic, unrounded: the ZFP-rate
    ablation reads a relative drift of ~1e-6."""
    from repro.apps.awp import run_awp

    r = run_awp(machine=params["machine"], gpus=params["gpus"],
                gpus_per_node=params["ppn"],
                local_shape=tuple(params["local_shape"]),
                steps=params["steps"], config=_config(params),
                surrogate=params.get("surrogate", False),
                trace=params.get("trace", True))
    metrics = {"time_per_step_us": _r(r.time_per_step * 1e6),
               "comm_fraction_pct": _r(100.0 * r.comm_fraction, 4),
               "gflops": _r(r.gflops, 4)}
    if params.get("energy"):
        metrics["energy"] = float(r.energy)
    return {"metrics": metrics}


def _run_dask(params: dict) -> dict:
    from repro.apps.dasklite import transpose_sum_benchmark

    r = transpose_sum_benchmark(n_workers=params["workers"],
                                dims=params["dims"], chunk=params["chunk"],
                                machine=params["machine"],
                                config=_config(params))
    return {"metrics": {"execution_time_us": _r(r.execution_time * 1e6),
                        "throughput_gb_s": _r(r.aggregate_throughput / 1e9)}}


def _run_codec(params: dict) -> dict:
    """Ratio and max absolute error (unrounded: lossless reads exactly 0)
    of each ``[label, codec, params, dtype]`` on a dataset or a smooth
    512 x 512 field, which all but the 2-D codec take flattened."""
    import numpy as np

    from repro.compression import get_compressor
    from repro.datasets import generate

    if params["data"] == "field2d":
        x, y = np.meshgrid(np.linspace(0, 6, 512), np.linspace(0, 4, 512))
        data = (np.sin(x) * np.cos(y)
                + 0.1 * np.sin(5 * x + 3 * y)).astype(np.float32)
    else:
        data = generate(params["data"].removeprefix("dataset:"),
                        scale=params["scale"], seed=1)
    metrics = {"unique_pct": _r(100 * np.unique(data).size / data.size, 4)}
    for label, name, kwargs, dtype in params["codecs"]:
        x = (data if name == "zfp2d" else data.reshape(-1)).astype(dtype)
        codec = get_compressor(name, **kwargs)
        comp = codec.compress(x)
        err = np.abs(codec.decompress(comp).astype(np.float64)
                     - x.astype(np.float64)).max()
        metrics[f"ratio[{label}]"] = _r(comp.ratio)
        metrics[f"max_abs_err[{label}]"] = float(err)
    return {"metrics": metrics}


def _run_chaos(params: dict) -> dict:
    from repro.faults import FaultPlan
    from repro.faults.chaos import run_chaos

    plan = FaultPlan(seed=params["seed"], corrupt_rate=params["corrupt_rate"])
    report = run_chaos(machine=params["machine"],
                       sizes=tuple(params["sizes"]),
                       config=_config(params), plan=plan,
                       payload=params["payload"],
                       iterations=params["iterations"])
    res = report.results[0]
    return {"metrics": {
        "mismatches": _r(report.total_mismatches, 0),
        "overhead_us": _r(res.overhead * 1e6),
        "faults_injected": _r(sum(res.faults_injected.values()), 0),
        "retransmits": _r(res.recovery_events.get("retransmit", 0), 0),
    }}


_RUNNERS = {"pt2pt": _run_pt2pt, "bw": _run_bw, "collective": _run_collective,
            "awp": _run_awp, "dask": _run_dask, "codec": _run_codec,
            "chaos": _run_chaos}


def collect(quick: bool = True, label: str = "local",
            only: Optional[str] = None, record_wall: bool = False,
            progress: Optional[Callable[[str], None]] = None,
            scale: bool = False) -> dict:
    """Run the quick (``quick``), scale (``scale``) or paper matrix and
    build the snapshot document.

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
        "bench", (scale_matrix() if scale else scenario_matrix() if quick
                  else paper_matrix()), run,
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
