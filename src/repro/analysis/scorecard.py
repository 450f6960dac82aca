"""The reproduction scorecard: headline paper claims, automatically
re-measured.

Each :class:`Claim` pairs a quantitative statement from the paper with
a measurement function over this package; :func:`run_scorecard`
executes them all and reports measured vs. paper values plus a
qualitative verdict (``shape-ok``: the direction/ordering holds even
where the magnitude differs — see EXPERIMENTS.md on calibration).

This is the programmatic source of EXPERIMENTS.md's summary and is
printed by ``benchmarks/bench_scorecard.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core import CompressionConfig
from repro.utils.tables import format_table
from repro.utils.units import MiB

__all__ = ["Claim", "ClaimResult", "CLAIMS", "reduction_pct", "run_scorecard",
           "render_scorecard"]


@dataclass(frozen=True)
class Claim:
    """One measurable statement from the paper."""

    claim_id: str
    description: str
    paper_value: float
    unit: str
    measure: Callable[[], float]
    #: measured must be at least this to count as shape-preserving
    ok_threshold: float = 0.0
    higher_is_better: bool = True


@dataclass
class ClaimResult:
    claim: Claim
    measured: float

    @property
    def shape_ok(self) -> bool:
        if self.claim.higher_is_better:
            return self.measured >= self.claim.ok_threshold
        return self.measured <= self.claim.ok_threshold

    def row(self) -> list:
        return [
            self.claim.claim_id, self.claim.description,
            self.measured, self.claim.paper_value, self.claim.unit,
            "yes" if self.shape_ok else "NO",
        ]


# -- measurement helpers -------------------------------------------------------

def reduction_pct(baseline: float, value: float) -> float:
    """Percent latency reduction vs. baseline (positive = faster)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - value / baseline)


def _pt2pt_reduction(machine: str, config, nbytes: int, inter_node: bool = True,
                     payload: str = "omb") -> float:
    from repro.omb import osu_latency

    base = osu_latency(machine, sizes=[nbytes], inter_node=inter_node,
                       payload=payload)[0].latency
    comp = osu_latency(machine, sizes=[nbytes], config=config,
                       inter_node=inter_node, payload=payload)[0].latency
    return reduction_pct(base, comp)


def _m_fig9a_mpc() -> float:
    return _pt2pt_reduction("longhorn", CompressionConfig.mpc_opt(), 8 * MiB)


def _m_fig9b_zfp4() -> float:
    return _pt2pt_reduction("frontera-liquid", CompressionConfig.zfp_opt(4), 8 * MiB)


def _m_fig9b_zfp8_pipe() -> float:
    cfg = CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=8)
    return _pt2pt_reduction("frontera-liquid", cfg, 8 * MiB)


def _m_fig9c_mpc_nvlink() -> float:
    return _pt2pt_reduction("longhorn", CompressionConfig.mpc_opt(), 8 * MiB,
                            inter_node=False)


def _m_fig5_naive_slowdown() -> float:
    return -_pt2pt_reduction("longhorn", CompressionConfig.naive_mpc(), 1 * MiB,
                             payload="wave")


def _m_fig6_opt_vs_naive() -> float:
    from repro.omb import osu_latency

    naive = osu_latency("longhorn", sizes=[2 * MiB],
                        config=CompressionConfig.naive_mpc(), payload="wave")[0]
    opt = osu_latency("longhorn", sizes=[2 * MiB],
                      config=CompressionConfig.mpc_opt(), payload="wave")[0]
    return naive.latency / opt.latency


def _m_table3_sppm_cr() -> float:
    from repro.compression import MpcCompressor
    from repro.datasets import generate

    return MpcCompressor(1).compress(generate("msg_sppm", scale=0.04, seed=1)).ratio


def _m_fig11_bcast_sppm() -> float:
    from repro.omb import osu_bcast

    base = osu_bcast(nodes=8, ppn=2, nbytes=4 * MiB, payload="dataset:msg_sppm")
    comp = osu_bcast(nodes=8, ppn=2, nbytes=4 * MiB, payload="dataset:msg_sppm",
                     config=CompressionConfig.mpc_opt())
    return reduction_pct(base.latency, comp.latency)


def _m_fig12_awp_zfp8() -> float:
    from repro.apps.awp import run_awp

    kw = dict(machine="frontera-liquid", gpus=16, gpus_per_node=4,
              local_shape=(96, 96, 512), steps=3, surrogate=True)
    base = run_awp(**kw, config=CompressionConfig.disabled())
    z8 = run_awp(**kw, config=CompressionConfig.zfp_opt(8))
    return 100 * (z8.gflops / base.gflops - 1)


def _m_fig14_dask_speedup() -> float:
    from repro.apps.dasklite import transpose_sum_benchmark

    base = transpose_sum_benchmark(8, dims=5120, chunk=1024)
    z8 = transpose_sum_benchmark(8, dims=5120, chunk=1024,
                                 config=CompressionConfig.zfp_opt(8))
    return base.execution_time / z8.execution_time


CLAIMS: list[Claim] = [
    Claim("fig5", "naive MPC slows down 1M pt2pt (slowdown %, >0 = slower)",
          400.0, "%", _m_fig5_naive_slowdown, ok_threshold=50.0),
    Claim("fig6", "MPC-OPT speedup over naive integration at 2M",
          4.0, "x", _m_fig6_opt_vs_naive, ok_threshold=1.5),
    Claim("table3", "MPC ratio on msg_sppm",
          8.951, "ratio", _m_table3_sppm_cr, ok_threshold=6.0),
    Claim("fig9a", "MPC-OPT inter-node latency reduction (Longhorn, 8M)",
          62.5, "%", _m_fig9a_mpc, ok_threshold=25.0),
    Claim("fig9b", "ZFP-OPT(4) inter-node reduction (Frontera, 8M)",
          83.1, "%", _m_fig9b_zfp4, ok_threshold=25.0),
    Claim("fig9b+", "ZFP-OPT(8)+pipeline reduction (extension)",
          77.0, "%", _m_fig9b_zfp8_pipe, ok_threshold=45.0),
    Claim("fig9c", "MPC-OPT on NVLink: no benefit (reduction <= 0)",
          0.0, "%", _m_fig9c_mpc_nvlink, ok_threshold=2.0,
          higher_is_better=False),
    Claim("fig11a", "MPI_Bcast reduction on msg_sppm (8x2 ranks, 4M)",
          57.0, "%", _m_fig11_bcast_sppm, ok_threshold=8.0),
    Claim("fig12", "AWP flops gain with ZFP-OPT(8), 16 GPUs Frontera",
          37.0, "%", _m_fig12_awp_zfp8, ok_threshold=2.0),
    Claim("fig14", "Dask x+x.T speedup with ZFP-OPT(8), 8 workers",
          1.18, "x", _m_fig14_dask_speedup, ok_threshold=1.02),
]


def run_scorecard(claims: Optional[list[Claim]] = None) -> list[ClaimResult]:
    """Measure every claim (a few minutes of simulation)."""
    return [ClaimResult(c, float(c.measure())) for c in (claims or CLAIMS)]


def render_scorecard(results: list[ClaimResult]) -> str:
    return format_table(
        ["id", "claim", "measured", "paper", "unit", "shape-ok"],
        [r.row() for r in results],
        floatfmt=".2f",
        title="Reproduction scorecard (see EXPERIMENTS.md for the calibration note)",
    )
