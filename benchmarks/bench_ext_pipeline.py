"""Extension: pipelined rendezvous (chunked overlap).

The paper's design compresses the whole message, combines partitions,
then transfers.  MVAPICH2-GDR pipelines large messages in chunks; doing
the same for compressed traffic overlaps compression, wire and
decompression.

Finding: pipelining is a big win exactly when the *wire* is the
bottleneck — fixed-rate ZFP (ratio 4) jumps from ~38% to ~68% latency
reduction, recovering most of the distance to the paper's Fig 9 band.
For MPC on OMB dummy data (ratio ~31) the wire is already negligible
and the transfer is *kernel*-bound: sequential half-device chunks
forfeit MPC-OPT's concurrent-kernel aggregate speedup, so the combined
scheme stays faster.  The right policy is per-message, based on the
expected ratio — exactly the kind of decision an adaptive monitor
(Sec IX future work) should make.
"""

from _common import emit, once

from repro.core import CompressionConfig
from repro.omb import osu_latency
from repro.utils.units import MiB, fmt_bytes

SIZES = [2 * MiB, 8 * MiB, 16 * MiB]
CONFIGS = [
    ("baseline", CompressionConfig.disabled()),
    ("zfp8", CompressionConfig.zfp_opt(8)),
    ("zfp8+pipe", CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=8)),
    ("mpc-opt", CompressionConfig.mpc_opt()),
    ("mpc+pipe", CompressionConfig.mpc_opt(partitions=8).with_(pipeline=True)),
]


def build():
    table = {}
    for label, cfg in CONFIGS:
        rows = osu_latency("frontera-liquid", sizes=SIZES, config=cfg,
                           payload="omb")
        table[label] = [r.latency_us for r in rows]
    return [
        [fmt_bytes(s)] + [table[l][i] for l, _ in CONFIGS]
        for i, s in enumerate(SIZES)
    ]


def test_ext_pipelined_rendezvous(benchmark):
    rows = once(benchmark, build)
    emit(benchmark,
         "Extension - pipelined compressed rendezvous (Frontera inter-node, us)",
         ["size"] + [l for l, _ in CONFIGS], rows,
         zfp8_pipe_reduction=1 - rows[-1][3] / rows[-1][1])
    for row in rows:
        # Wire-bound ZFP: pipelining always wins.
        assert row[3] < row[2], "pipelining must beat combined ZFP"
        # Kernel-bound MPC on ratio-31 dummy data: combined concurrent
        # kernels win — the documented counter-case.
        assert row[5] > row[4], "combined MPC expected to win on dummy data"
    # At 16M the pipelined ZFP reduction approaches the paper's band.
    assert 1 - rows[-1][3] / rows[-1][1] > 0.5
