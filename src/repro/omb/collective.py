"""osu_bcast / osu_allgather / osu_alltoall / osu_allreduce.

Figure 11 runs the collectives on 8 nodes x 2 ppn with payloads drawn
from the Table III datasets ("we modified OMB to transfer data from
real datasets").  Each harness returns the max-over-ranks latency of
one collective invocation after a warm-up, OMB-style.

``osu_allreduce`` additionally accepts the allreduce ``algorithm``
(``ring`` / ``recursive_doubling`` / ``reduce_bcast``; see
:func:`repro.mpi.collectives.allreduce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload

__all__ = ["CollectiveRow", "osu_bcast", "osu_allgather", "osu_alltoall", "osu_allreduce"]


@dataclass
class CollectiveRow:
    """One collective measurement."""

    op: str
    nbytes: int
    payload: str
    latency: float  # seconds, max across ranks
    breakdown: dict
    #: allreduce algorithm (None for non-reduction collectives)
    algorithm: Optional[str] = None

    @property
    def latency_us(self) -> float:
        return self.latency * 1e6


def _collective_rank(comm, op: str, data, warmup: int, algorithm):
    for _ in range(warmup):
        yield from _run_op(comm, op, data, algorithm)
    yield from comm.barrier()
    t0 = comm.now
    yield from _run_op(comm, op, data, algorithm)
    return comm.now - t0


def _run_op(comm, op: str, data, algorithm=None):
    if op == "bcast":
        yield from comm.bcast(data, root=0)
    elif op == "allgather":
        yield from comm.allgather(data)
    elif op == "alltoall":
        chunks = np.array_split(data, comm.size)
        yield from comm.alltoall(chunks)
    elif op == "allreduce":
        yield from comm.allreduce(data, algorithm=algorithm)
    else:  # pragma: no cover - guarded by the public wrappers
        raise ValueError(op)


def _run_collective(
    op: str,
    machine: str,
    nodes: int,
    ppn: int,
    nbytes: int,
    payload: str,
    config: Optional[CompressionConfig],
    warmup: int = 1,
    algorithm: Optional[str] = None,
    trace: bool = True,
) -> CollectiveRow:
    config = config or CompressionConfig.disabled()
    cluster = Cluster(machine_preset(machine), nodes=nodes, gpus_per_node=ppn)
    data = make_payload(payload, nbytes)
    res = cluster.run(_collective_rank, config=config,
                      args=(op, data, warmup, algorithm), trace=trace)
    return CollectiveRow(
        op=op, nbytes=nbytes, payload=payload,
        latency=max(res.values), breakdown=res.breakdown(),
        algorithm=algorithm,
    )


def osu_bcast(machine: str = "frontera-liquid", nodes: int = 8, ppn: int = 2,
              nbytes: int = 1 << 20, payload: str = "omb",
              config: Optional[CompressionConfig] = None) -> CollectiveRow:
    """MPI_Bcast latency (Figure 11a)."""
    return _run_collective("bcast", machine, nodes, ppn, nbytes, payload, config)


def osu_allgather(machine: str = "frontera-liquid", nodes: int = 8, ppn: int = 2,
                  nbytes: int = 1 << 20, payload: str = "omb",
                  config: Optional[CompressionConfig] = None,
                  warmup: int = 1, trace: bool = True) -> CollectiveRow:
    """MPI_Allgather latency (Figure 11b).

    ``warmup=0, trace=False`` is the scale-run mode: a 1024-rank ring
    allgather of 4 KiB blocks is ~1M eager messages, so the extra
    warm-up invocation and span recording are what separate minutes
    from hours of host time."""
    return _run_collective("allgather", machine, nodes, ppn, nbytes, payload,
                           config, warmup=warmup, trace=trace)


def osu_alltoall(machine: str = "frontera-liquid", nodes: int = 8, ppn: int = 2,
                 nbytes: int = 1 << 20, payload: str = "omb",
                 config: Optional[CompressionConfig] = None) -> CollectiveRow:
    """MPI_Alltoall latency — the paper's future-work pattern."""
    return _run_collective("alltoall", machine, nodes, ppn, nbytes, payload, config)


def osu_allreduce(machine: str = "frontera-liquid", nodes: int = 8, ppn: int = 2,
                  nbytes: int = 1 << 20, payload: str = "omb",
                  config: Optional[CompressionConfig] = None,
                  algorithm: Optional[str] = None) -> CollectiveRow:
    """MPI_Allreduce latency with a selectable algorithm."""
    return _run_collective("allreduce", machine, nodes, ppn, nbytes, payload,
                           config, algorithm=algorithm)
