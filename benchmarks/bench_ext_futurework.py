"""Extension from the paper's Section IX (future work), implemented:
compressed MPI_Alltoall and MPI_Allreduce — "we plan to ... explore the
designs to accelerate various communication patterns like Alltoall and
Allreduce".  (The adaptive on/off policy named there is future work
here too — see ROADMAP "Still dropped".)
"""

from _common import emit, once

from repro.core import CompressionConfig
from repro.omb import osu_allreduce, osu_alltoall
from repro.utils.units import MiB


def build_collectives():
    rows = []
    for op, fn in (("alltoall", osu_alltoall), ("allreduce", osu_allreduce)):
        base = fn(machine="frontera-liquid", nodes=4, ppn=2, nbytes=8 * MiB,
                  payload="dataset:msg_sppm")
        comp = fn(machine="frontera-liquid", nodes=4, ppn=2, nbytes=8 * MiB,
                  payload="dataset:msg_sppm", config=CompressionConfig.mpc_opt())
        rows.append([op, base.latency_us, comp.latency_us,
                     100 * (1 - comp.latency / base.latency)])
    return rows


def test_ext_alltoall_allreduce(benchmark):
    rows = once(benchmark, build_collectives)
    emit(benchmark,
         "Future work - compressed Alltoall / Allreduce (8M sppm, us)",
         ["op", "baseline", "mpc-opt", "reduction %"],
         rows)
    assert rows[0][3] > 0, "alltoall must gain from compression"
