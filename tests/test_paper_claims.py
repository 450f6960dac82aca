"""The paper's claims, asserted on the committed paper-matrix snapshot
(``repro bench``), which CI's paper-smoke job re-runs and compares at
zero tolerance: the simulation is deterministic, so a claim that holds
on the file holds for the code while that gate passes.  Nothing here
runs a simulation.  :data:`CLAIMS` is the reproduction scorecard."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from repro.analysis.bench import (FIG11_DATASETS, SWEEP, paper_matrix,
                                  reduction_pct)
from repro.datasets import dataset_names
from repro.datasets.catalog import get_spec
from repro.utils.units import KiB, MiB

BASELINE = Path(__file__).parent / "data" / "BENCH_full_baseline.json"
_8M = 8 * MiB


@lru_cache(maxsize=None)
def scenarios() -> dict:
    return json.loads(BASELINE.read_text())["scenarios"]


def metric(entry: str, key: str) -> float:
    return scenarios()[entry]["metrics"][key]


def lat(entry: str, nbytes: Optional[int] = None) -> float:
    """Latency (us): a collective's, or a pt2pt sweep's one-way at ``nbytes``."""
    return metric(entry, "latency_us" if nbytes is None else f"latency_us[{nbytes}]")


def part(entry: str, category: str, nbytes: int) -> float:
    """One-way microseconds of a span category (0 when it never ran)."""
    return scenarios()[entry]["metrics"].get(f"{category}_us[{nbytes}]", 0.0)


def red(base: str, entry: str, nbytes: Optional[int] = None) -> float:
    """Percent latency reduction of ``entry`` against ``base``."""
    return reduction_pct(lat(base, nbytes), lat(entry, nbytes))


def shares(entry: str, nbytes: int) -> tuple[float, ...]:
    """Fig 10's compression / comm / decompression / other shares, %."""
    compr = part(entry, "compression_kernel", nbytes) + part(entry, "combine", nbytes)
    decompr = part(entry, "decompression_kernel", nbytes)
    comm = part(entry, "network", nbytes)
    other = max(1e-30, lat(entry, nbytes) - compr - decompr - comm)
    total = compr + decompr + comm + other
    return tuple(100 * x / total for x in (compr, comm, decompr, other))


def energy_errors() -> dict[int, float]:
    """Relative AWP energy drift of ZFP-OPT per rate (the ablation)."""
    base = metric("ablation/zfp-rate/baseline", "energy")
    return {rate: abs(metric(f"ablation/zfp-rate/{rate}", "energy") - base)
            / (abs(base) + 1e-30) for rate in (16, 8, 6, 4)}


def fig14_speedups() -> list[float]:
    t = lambda w, cfg: metric(f"fig14/{w}w/{cfg}", "execution_time_us")
    return [t(w, "baseline") / t(w, "zfp8") for w in (2, 4, 6, 8)]


class Claim(NamedTuple):
    """One measurable statement from the paper."""

    claim_id: str
    description: str
    paper_value: float
    unit: str
    measure: Callable[[], float]
    #: the shape holds at least (at most, if not higher_is_better) this
    ok_threshold: float = 0.0
    higher_is_better: bool = True

    def shape_ok(self, measured: float) -> bool:
        if self.higher_is_better:
            return measured >= self.ok_threshold
        return measured <= self.ok_threshold


CLAIMS = [
    Claim("fig5", "naive MPC slows down 1M pt2pt (slowdown %, >0 = slower)",
          400.0, "%", lambda: -red("fig5/baseline", "fig5/naive-mpc", MiB), 50.0),
    Claim("fig6", "MPC-OPT speedup over naive integration at 2M", 4.0, "x",
          lambda: lat("fig5/naive-mpc", 2 * MiB) / lat("fig6/mpc-opt", 2 * MiB), 1.5),
    Claim("table3", "MPC ratio on msg_sppm", 8.951, "ratio",
          lambda: metric("table3/msg_sppm-scorecard", "ratio[mpc-d1]"), 6.0),
    Claim("fig9a", "MPC-OPT inter-node latency reduction (Longhorn, 8M)", 62.5,
          "%", lambda: red("fig9a/baseline", "fig9a/mpc-opt", _8M), 25.0),
    Claim("fig9b", "ZFP-OPT(4) inter-node reduction (Frontera, 8M)", 83.1, "%",
          lambda: red("fig9b/baseline", "fig9b/zfp4", _8M), 25.0),
    Claim("fig9b+", "ZFP-OPT(8)+pipeline reduction (extension)", 77.0, "%",
          lambda: red("ext/pipeline/baseline", "ext/pipeline/zfp8-pipe", _8M), 45.0),
    Claim("fig9c", "MPC-OPT on NVLink: no benefit (reduction <= 0)", 0.0, "%",
          lambda: red("fig9c/baseline", "fig9c/mpc-opt", _8M), 2.0,
          higher_is_better=False),
    Claim("fig11a", "MPI_Bcast reduction on msg_sppm (8x2 ranks, 4M)", 57.0, "%",
          lambda: red("fig11/bcast/msg_sppm/baseline", "fig11/bcast/msg_sppm/mpc-opt"),
          8.0),
    Claim("fig12", "AWP flops gain with ZFP-OPT(8), 16 GPUs Frontera", 37.0, "%",
          lambda: 100 * (metric("fig12/4ppn/16gpu/zfp8", "gflops")
                         / metric("fig12/4ppn/16gpu/baseline", "gflops") - 1), 2.0),
    Claim("fig14", "Dask x+x.T speedup with ZFP-OPT(8), 8 workers", 1.18, "x",
          lambda: fig14_speedups()[-1], 1.02),
]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.claim_id)
def test_scorecard_claim_holds(claim):
    assert claim.shape_ok(claim.measure()), claim.description


def test_claims_cover_headlines():
    ids = {c.claim_id for c in CLAIMS}
    assert {"fig5", "fig6", "table3", "fig9a", "fig9b", "fig9c",
            "fig11a", "fig12", "fig14"} <= ids


def test_claim_verdicts():
    up = Claim("x", "d", 10.0, "%", lambda: 0.0, ok_threshold=5.0)
    assert not up.shape_ok(4.9)
    assert up.shape_ok(5.0)
    down = Claim("y", "d", 0.0, "%", lambda: 0.0, ok_threshold=2.0,
                 higher_is_better=False)
    assert down.shape_ok(-50.0)
    assert not down.shape_ok(3.0)


def test_fig9c_claim_is_inverted():
    """The NVLink claim passes when compression loses."""
    claim = next(c for c in CLAIMS if c.claim_id == "fig9c")
    assert not claim.higher_is_better


def test_full_matrix_shape():
    matrix = paper_matrix()
    names = [e.name for e in matrix]
    assert len(names) == len(set(names))
    assert {n.split("/")[0] for n in names} == {
        "fig2a", "fig2b", "fig5", "fig6", "fig8", "fig9a", "fig9b", "fig9c",
        "fig9d", "fig11", "fig12", "fig13", "fig14", "table3", "ablation",
        "ext", "crossover"}
    assert {e.kind for e in matrix} == {
        "pt2pt", "bw", "collective", "awp", "dask", "codec"}
    assert len([n for n in names if n.startswith("crossover/")]) == 18
    doc = json.loads(BASELINE.read_text())  # this matrix, captured
    assert doc["mode"] == "full" and sorted(doc["scenarios"]) == sorted(names)


def test_experiments_md_matches_render():
    from tests.make_experiments import EXPERIMENTS, TABLES, render

    text = EXPERIMENTS.read_text()
    assert [n for n in TABLES if f"<!-- table: {n} -->" not in text] == []
    assert render(text) == text, "run `PYTHONPATH=src python tests/make_experiments.py`"
    assert TABLES["scorecard"]().count("| ok |") == len(CLAIMS)


def test_fig2_motivation():
    assert metric("fig2a/bw", f"bandwidth_gb_s[{8 * MiB}]") > 0.9 * 12.5
    comm = {g: metric(f"fig2b/{g}gpu", "time_per_step_us")
            * metric(f"fig2b/{g}gpu", "comm_fraction_pct") for g in (4, 16)}
    assert metric("fig2b/16gpu", "comm_fraction_pct") > 10.0
    assert comm[16] >= comm[4]


def test_fig5_6_naive_integration_loses_and_mpc_opt_fixes_it():
    naive, opt = "fig5/naive-mpc", "fig6/mpc-opt"
    for n in SWEEP:
        assert lat(naive, n) > lat("fig5/baseline", n)
        assert lat("fig5/naive-zfp16", n) > lat("fig5/baseline", n)
    assert part(naive, "malloc", SWEEP[0]) / lat(naive, SWEEP[0]) > 0.4
    for n in SWEEP:
        assert part(opt, "malloc", n) == 0.0
        assert part(opt, "data_copy", n) < part(naive, "data_copy", n) / 3
        assert lat(opt, n) < lat(naive, n)
    assert max(lat(naive, n) / lat(opt, n) for n in SWEEP) > 2.0


def test_fig8_zfp_breakdown_naive_vs_opt():
    naive, opt = "fig8/naive-zfp16", "fig8/zfp16"
    for n in SWEEP:
        assert part(naive, "get_max_grid_dims", n) > 1500.0
        assert part(naive, "get_max_grid_dims", n) > (
            part(naive, "compression_kernel", n)
            + part(naive, "decompression_kernel", n))
        assert part(opt, "get_max_grid_dims", n) < 2.0
        assert lat(opt, n) < lat(naive, n)
    assert lat(naive, SWEEP[0]) / lat(opt, SWEEP[0]) > 3.0


def test_fig9_pt2pt_panels():
    big = lambda panel, cfg: lat(f"{panel}/{cfg}", _8M)
    assert big("fig9a", "mpc-opt") < big("fig9a", "baseline")
    assert big("fig9a", "zfp4") < big("fig9a", "zfp8") < big("fig9a", "zfp16")
    assert big("fig9b", "mpc-opt") < big("fig9b", "baseline")
    assert big("fig9b", "zfp4") < big("fig9b", "baseline")
    assert big("fig9b", "zfp4") < big("fig9b", "zfp16")
    for n in SWEEP:  # MPC-OPT never wins on NVLink
        assert lat("fig9c/mpc-opt", n) >= lat("fig9c/baseline", n) * 0.98
    assert big("fig9d", "zfp4") < big("fig9d", "baseline")
    assert big("fig9d", "mpc-opt") < big("fig9d", "baseline")


def test_fig10_breakdown_shares():
    mpc, zfp = shares("fig9b/mpc-opt", _8M), shares("fig9b/zfp4", _8M)
    assert mpc[0] + mpc[2] > mpc[1]  # kernels dominate on dummy data
    assert mpc[1] < zfp[1]           # ratio ~31 vs ZFP's fixed 8
    assert zfp[2] < zfp[0]           # ZFP decompression is cheap


def test_fig11_collectives_on_datasets():
    gain = lambda op, ds, cfg: 1 - (lat(f"fig11/{op}/{ds}/{cfg}")
                                    / lat(f"fig11/{op}/{ds}/baseline"))
    assert gain("bcast", "msg_sppm", "mpc-opt") > gain("bcast", "msg_bt", "mpc-opt")
    assert gain("bcast", "msg_sppm", "mpc-opt") > 0.1
    zgains = [gain("bcast", ds, "zfp4") for ds in FIG11_DATASETS]
    assert min(zgains) > 0.1
    assert max(zgains) - min(zgains) < 0.35
    assert (gain("allgather", "msg_sppm", "mpc-opt")
            > gain("allgather", "msg_bt", "mpc-opt"))
    assert gain("allgather", "msg_sppm", "zfp4") > 0.05


@pytest.mark.parametrize("ppn", [2, 4])
def test_fig12_awp_frontera_gains_at_scale(ppn):
    flops = lambda cfg: metric(f"fig12/{ppn}ppn/16gpu/{cfg}", "gflops")
    assert flops("mpc-opt") > flops("baseline")
    assert flops("zfp8") > flops("baseline")
    assert flops("zfp8") >= flops("zfp16") * 0.98


def test_fig13_awp_lassen():
    m = lambda gpus, cfg, key: metric(f"fig13/4ppn/{gpus}gpu/{cfg}", key)
    assert m(64, "mpc-opt", "gflops") > m(64, "baseline", "gflops")
    assert m(64, "zfp8", "gflops") > m(64, "baseline", "gflops")
    tps = lambda cfg: m(64, cfg, "time_per_step_us")
    assert tps("mpc-opt") < tps("baseline") and tps("zfp8") < tps("baseline")
    assert m(64, "baseline", "gflops") > 3 * m(8, "baseline", "gflops")


def test_fig14_dask_speedup_and_throughput():
    speedups = fig14_speedups()
    assert sum(speedups) / len(speedups) > 1.05
    thr = lambda cfg: metric(f"fig14/8w/{cfg}", "throughput_gb_s")
    assert thr("zfp8") / thr("baseline") > 1.1


def test_table3_mpc_ratios_within_15pct_of_paper():
    worst = 0.0
    for ds in dataset_names():
        cr = max(metric(f"table3/{ds}", f"ratio[mpc-d{d}]") for d in (1, 2, 3, 4))
        worst = max(worst, abs(cr - get_spec(ds).cr_mpc) / get_spec(ds).cr_mpc)
    assert worst < 0.15


def test_ablations():
    for n in SWEEP:
        opt, memcpy = lat("fig6/mpc-opt", n), lat("ablation/no-gdrcopy", n)
        assert opt < memcpy
        assert 5.0 < memcpy - opt < 60.0
        assert opt < lat("ablation/no-pool", n)
    n = SWEEP[0]
    assert part("ablation/no-pool", "malloc", n) / lat("ablation/no-pool", n) > 0.3
    p = lambda parts, n: lat(f"ablation/partitions/p{parts}", n)
    assert p(8, _8M) < p(1, _8M)
    assert min(p(1, 256 * KiB), p(2, 256 * KiB)) < p(8, 256 * KiB)
    t = lambda thr, n: lat(f"ablation/threshold/{thr}", n)
    assert t("16K", 4 * MiB) < t("8M", 4 * MiB)
    assert t("16K", 64 * KiB) > t("1M", 64 * KiB)
    errs = energy_errors()  # ZFP rate vs AWP accuracy
    assert errs[16] < 1e-3
    assert errs[4] > 100 * errs[16]
    assert errs[4] > errs[8] > errs[16]


def test_extensions():
    err = lambda e, label: metric(e, f"max_abs_err[{label}]")
    assert err("ext/codecs", "mpc[1]") == 0.0
    assert err("ext/codecs", "gfc") == 0.0
    assert err("ext/codecs", "fpc") == 0.0
    assert err("ext/codecs", "sz[0.001]") <= 1e-3
    assert metric("ext/codecs", "ratio[zfp[8]]") > metric("ext/codecs", "ratio[zfp[16]]")
    for rate in (4, 8, 16):
        assert err("ext/zfp2d", f"zfp2d[{rate}]") < err("ext/zfp2d", f"zfp[{rate}]")
    assert err("ext/zfp2d", "zfp[4]") / err("ext/zfp2d", "zfp2d[4]") > 5
    assert red("ext/alltoall/baseline", "ext/alltoall/mpc-opt") > 0
    p = lambda label, n: lat(f"ext/pipeline/{label}", n)
    for n in (2 * MiB, _8M, 16 * MiB):
        assert p("zfp8-pipe", n) < p("zfp8", n)
        assert p("mpc-pipe", n) > p("mpc-opt", n)
    assert 1 - p("zfp8-pipe", 16 * MiB) / p("baseline", 16 * MiB) > 0.5
