"""Ablation 3: MPC-OPT partition count (kernel decomposition).

Reproduces the tuning experiment behind Section IV's "we fine-tune the
number of partitions for different message sizes": small messages want
one kernel, large ones want many concurrent small-block kernels.
"""

from _common import emit, once

from repro.compression.perfmodel import MPC_V100
from repro.core import CompressionConfig, partitions_for_message
from repro.omb import osu_latency
from repro.utils.units import KiB, MiB, fmt_bytes

SIZES = [256 * KiB, 2 * MiB, 8 * MiB]
PARTS = [1, 2, 4, 8]


def sweep_partitions(model, nbytes: int, sm_count: int, candidates=(1, 2, 4, 8, 16)) -> dict:
    """Model-predicted compression wall time per candidate partition
    count — the tuning experiment behind the engine's schedule.

    ``model`` is a :class:`repro.compression.perfmodel.KernelCostModel`.
    Partition kernels run concurrently with ``sm_count // p`` blocks
    each, but their *launches* serialize on the CPU, and the partition
    outputs must be merged — which is why small messages prefer a
    single kernel and large ones prefer many.
    """
    out = {}
    for p in candidates:
        blocks = max(1, sm_count // p)
        per_kernel = model.compress_time(-(-nbytes // p), blocks, sm_count)
        serial_launches = (p - 1) * model.launch_overhead
        combine = 0.0 if p == 1 else model.launch_overhead + nbytes / 400e9
        out[p] = serial_launches + per_kernel + combine
    return out


def build_measured():
    out = []
    for size in SIZES:
        row = [fmt_bytes(size)]
        for p in PARTS:
            cfg = CompressionConfig.mpc_opt(partitions=p)
            r = osu_latency("longhorn", sizes=[size], config=cfg, payload="wave")[0]
            row.append(r.latency_us)
        row.append(partitions_for_message(size))
        out.append(row)
    return out


def test_ablation_partitions_measured(benchmark):
    rows = once(benchmark, build_measured)
    emit(benchmark,
         "Ablation - MPC-OPT latency vs partition count (Longhorn, us)",
         ["size"] + [f"p={p}" for p in PARTS] + ["tuned"],
         rows)
    # Large messages: more partitions help.
    big = rows[-1]
    assert big[4] < big[1], "8 partitions must beat 1 at 8M"
    # Small messages: the optimum sits at few partitions (p=1/p=2 are
    # near break-even at 256K; p=8 is clearly worse).
    small = rows[0]
    assert min(small[1], small[2]) < small[4]


def test_ablation_partitions_model(benchmark):
    """The analytic sweep agrees with the tuned schedule."""
    def build():
        out = []
        for size in (256 * KiB, 1 * MiB, 8 * MiB, 32 * MiB):
            sweep = sweep_partitions(MPC_V100, size, 80, candidates=PARTS)
            best = min(sweep, key=sweep.get)
            out.append([fmt_bytes(size)] + [sweep[p] * 1e6 for p in PARTS] + [best])
        return out

    rows = once(benchmark, build)
    emit(benchmark,
         "Ablation - model-predicted compression time vs partitions (us)",
         ["size"] + [f"p={p}" for p in PARTS] + ["best"],
         rows)
    assert rows[0][-1] <= 2      # small -> few partitions
    assert rows[-1][-1] >= 4     # big -> many partitions
