"""Render EXPERIMENTS.md's tables (each between ``<!-- table: NAME -->``
and ``<!-- end -->``; the prose around them is hand-written) from the
paper-matrix snapshot.  After an intentional change to a simulated
number, re-capture the snapshot, then rewrite the file::

    PYTHONPATH=src python -m repro bench --label full_baseline \\
        --out tests/data/BENCH_full_baseline.json
    PYTHONPATH=src python tests/make_experiments.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.analysis.bench import FIG9_CONFIGS, FIG11_DATASETS, SWEEP  # noqa: E402
from repro.datasets import dataset_names  # noqa: E402
from repro.datasets.catalog import get_spec  # noqa: E402
from repro.utils.units import MiB, fmt_bytes  # noqa: E402
from tests.test_paper_claims import (  # noqa: E402
    CLAIMS, energy_errors, lat, metric, part, red, scenarios, shares)

EXPERIMENTS = Path(__file__).parent.parent / "EXPERIMENTS.md"

MPC_CATS = ["malloc", "data_copy", "compression_kernel",
            "decompression_kernel", "combine", "network"]
ZFP_CATS = ["zfp_stream_field", "get_max_grid_dims", "malloc",
            "compression_kernel", "decompression_kernel", "network"]
SHARES = ("compression %", "comm %", "decompression %", "other %")


def _table(first: str, keys, cols: dict, fmt=".1f", key=str) -> str:
    """A markdown table: a row per key, headed ``key(k)``, and a column
    per ``{header: fn(k)}``."""
    cell = lambda v: format(v, fmt) if isinstance(v, float) else str(v)
    rows = [[key(k)] + [f(k) for f in cols.values()] for k in keys]
    return "\n".join(["| " + " | ".join([first, *cols]) + " |",
                      "|" + "---|" * (len(cols) + 1)]
                     + ["| " + " | ".join(map(cell, row)) + " |" for row in rows])


def _sizes(cols: dict, sizes=SWEEP, fmt=".1f") -> str:
    return _table("size", sizes, cols, fmt, key=fmt_bytes)


def _sweep(entries: dict) -> str:
    """One-way latency (us) per size of each pt2pt entry, ``{label: name}``."""
    sizes = scenarios()[next(iter(entries.values()))]["params"]["sizes"]
    return _sizes({label: lambda n, e=e: lat(e, n) for label, e in entries.items()}, sizes)


def _breakdown(entry: str, cats: list[str]) -> str:
    return _sizes({**{c: lambda n, c=c: part(entry, c, n) for c in cats},
                   "total": lambda n: lat(entry, n)})


def _grid(first: str, keys, labels, name, fmt=".1f", scale=1.0) -> str:
    """``metric(*name(key, label))`` scaled, per key and label."""
    return _table(first, keys, {label: lambda k, label=label: metric(*name(k, label)) * scale
                                for label in labels}, fmt)


def _fig11(op: str) -> str:
    e = lambda ds, cfg: f"fig11/{op}/{ds}/{cfg}"
    return _table("dataset", FIG11_DATASETS, {
        **{cfg: lambda ds, cfg=cfg: lat(e(ds, cfg)) for cfg in FIG9_CONFIGS},
        **{f"{cfg} gain %": lambda ds, cfg=cfg: red(e(ds, "baseline"), e(ds, cfg))
           for cfg in ("mpc-opt", "zfp4")}})


def _table3_cell(ds: str, col: str):
    m = lambda key: metric(f"table3/{ds}", key)
    crs = [m(f"ratio[mpc-d{d}]") for d in (1, 2, 3, 4)]
    return {"unique": f"{m('unique_pct'):.1f} ({get_spec(ds).unique_pct:.1f})",
            "cr": f"{max(crs):.2f} ({get_spec(ds).cr_mpc:.3f})",
            "d": crs.index(max(crs)) + 1, "zfp": m("ratio[zfp16]")}[col]


_AWP = ("baseline", "mpc-opt", "zfp16", "zfp8")
_fig2b = lambda g, key: metric(f"fig2b/{g}gpu", key)
_zfp2d = lambda c, r: metric("ext/zfp2d", f"max_abs_err[{c}[{r}]]")
_CROSSOVER = [(n, shape) for n in (1 * MiB, 8 * MiB, 32 * MiB) for shape in ("2x2", "8x1")]

#: every table EXPERIMENTS.md holds, by marker name
TABLES = {
    "scorecard": lambda: _table("id", CLAIMS, {
        "claim": lambda c: c.description, "measured": lambda c: f"{c.measure():.2f}",
        "paper": lambda c: f"{c.paper_value:g}", "unit": lambda c: c.unit,
        "shape": lambda c: "ok" if c.shape_ok(c.measure()) else "NO"},
        key=lambda c: c.claim_id),
    "table3": lambda: _table("dataset", dataset_names(), {
        h: lambda ds, col=col: _table3_cell(ds, col) for h, col in (
            ("unique % (paper)", "unique"), ("CR-MPC (paper)", "cr"),
            ("best d", "d"), ("CR-ZFP(16)", "zfp"))}, ".2f"),
    "fig2": lambda: _sizes({"achieved GB/s (peak 12.5)": lambda n: metric(
        "fig2a/bw", f"bandwidth_gb_s[{n}]")}, scenarios()["fig2a/bw"]["params"]["sizes"],
        ".2f") + "\n\n" + _table("GPUs", (4, 8, 16), {
            "compute ms": lambda g: _fig2b(g, "time_per_step_us") / 1e3
            * (1 - _fig2b(g, "comm_fraction_pct") / 100),
            "comm ms": lambda g: _fig2b(g, "time_per_step_us") / 1e3
            * _fig2b(g, "comm_fraction_pct") / 100,
            "comm %": lambda g: _fig2b(g, "comm_fraction_pct")}, ".2f"),
    "fig5": lambda: _sweep({"baseline": "fig5/baseline", "naive MPC": "fig5/naive-mpc",
                            "naive ZFP(16)": "fig5/naive-zfp16"}),
    "fig6a": lambda: _breakdown("fig5/naive-mpc", MPC_CATS),
    "fig6b": lambda: _breakdown("fig6/mpc-opt", MPC_CATS),
    "fig8a": lambda: _breakdown("fig8/naive-zfp16", ZFP_CATS),
    "fig8b": lambda: _breakdown("fig8/zfp16", ZFP_CATS),
    **{p: lambda p=p: _sweep({c: f"{p}/{c}" for c in FIG9_CONFIGS})
       for p in ("fig9a", "fig9b", "fig9c", "fig9d")},
    **{f"fig10{x}": lambda e=e: _sizes({h: lambda n, i=i: shares(e, n)[i]
                                        for i, h in enumerate(SHARES)})
       for x, e in (("a", "fig9b/mpc-opt"), ("b", "fig9b/zfp4"))},
    "fig11a": lambda: _fig11("bcast"),
    "fig11b": lambda: _fig11("allgather"),
    **{fig: lambda prefix=prefix, gpus=gpus, key=key: _grid(
        "GPUs", gpus, _AWP, lambda g, cfg: (f"{prefix}/{g}gpu/{cfg}", key), ".3f", 1e-3)
       for fig, prefix, gpus, key in (
           ("fig12a", "fig12/2ppn", (4, 8, 16), "gflops"),
           ("fig12b", "fig12/4ppn", (4, 8, 16), "gflops"),
           ("fig13a", "fig13/4ppn", (8, 16, 32, 64), "gflops"),
           ("fig13b", "fig13/4ppn", (8, 16, 32, 64), "time_per_step_us"))},
    **{fig: lambda key=key: _grid("workers", (2, 4, 6, 8), ("baseline", "zfp16", "zfp8"),
                                  lambda w, cfg: (f"fig14/{w}w/{cfg}", key))
       for fig, key in (("fig14a", "execution_time_us"), ("fig14b", "throughput_gb_s"))},
    "ablation-opt": lambda: _sizes({
        "MPC-OPT": lambda n: lat("fig6/mpc-opt", n),
        "cudaMemcpy size read": lambda n: lat("ablation/no-gdrcopy", n),
        "no buffer pool": lambda n: lat("ablation/no-pool", n),
        "cudaMalloc us (no pool)": lambda n: part("ablation/no-pool", "malloc", n)}),
    "ablation-partitions": lambda: _sweep(
        {f"p={p}": f"ablation/partitions/p{p}" for p in (1, 2, 4, 8)}),
    "ablation-threshold": lambda: _sweep(
        {"baseline": "ablation/threshold/baseline",
         **{f"zfp8, threshold {t}": f"ablation/threshold/{t}"
            for t in ("16K", "128K", "1M", "8M")}}),
    "ablation-zfp-rate": lambda: _table("rate", (16, 8, 6, 4), {
        "step us": lambda r: metric(f"ablation/zfp-rate/{r}", "time_per_step_us"),
        "baseline step us": lambda r: metric("ablation/zfp-rate/baseline", "time_per_step_us"),
        "energy rel. error": lambda r: f"{energy_errors()[r]:.2e}"}),
    "ext-codecs": lambda: _grid(
        "codec", ("mpc[1]", "zfp[16]", "zfp[8]", "sz[0.001]", "gfc", "fpc"),
        ("ratio", "max_abs_err"), lambda c, m: ("ext/codecs", f"{m}[{c}]"), ".4g"),
    "ext-sz": lambda: _sweep({"baseline": "ext/sz/baseline", "sz": "ext/sz/sz"}),
    "ext-collectives": lambda: _table("op", ("alltoall", "allreduce"), {
        **{cfg: lambda op, cfg=cfg: lat(f"ext/{op}/{cfg}") for cfg in ("baseline", "mpc-opt")},
        "reduction %": lambda op: red(f"ext/{op}/baseline", f"ext/{op}/mpc-opt")}),
    "ext-pipeline": lambda: _sweep({label: f"ext/pipeline/{label}" for label in
                                    ("baseline", "zfp8", "zfp8-pipe", "mpc-opt", "mpc-pipe")}),
    "ext-zfp2d": lambda: _table("rate", (4, 8, 16), {
        "1-D max error": lambda r: _zfp2d("zfp", r), "2-D max error": lambda r: _zfp2d("zfp2d", r),
        "improvement x": lambda r: _zfp2d("zfp", r) / _zfp2d("zfp2d", r)}, ".3g"),
    "crossover": lambda: _table("size, nodes x ppn", _CROSSOVER, {
        cfg: lambda k, cfg=cfg: lat(f"crossover/allreduce/{fmt_bytes(k[0])}/{k[1]}/{cfg}")
        for cfg in ("baseline", "mpc-opt", "zfp8")}, key=lambda k: f"{fmt_bytes(k[0])}, {k[1]}"),
}

_BLOCK = re.compile(r"(<!-- table: (\S+) -->\n).*?(<!-- end -->)", re.S)


def render(text: str) -> str:
    """``text`` with every marked table rendered afresh."""
    return _BLOCK.sub(lambda m: m[1] + TABLES[m[2]]() + "\n" + m[3], text)


if __name__ == "__main__":
    EXPERIMENTS.write_text(render(EXPERIMENTS.read_text()))
    print(f"rendered {len(TABLES)} tables into {EXPERIMENTS}")
