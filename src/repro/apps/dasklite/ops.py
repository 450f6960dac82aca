"""Distributed operations on :class:`~repro.apps.dasklite.array.DistArray`.

``transpose_sum`` is the paper's workload: ``y = x + x.T``.  Output
chunk (i, j) needs input chunks (i, j) and (j, i); when (j, i) lives on
another worker the chunk crosses the (simulated) network — those are
the 8MB-1GB messages the paper's Dask section compresses.

All transfers use nonblocking isend/irecv posted up front, so the
exchange is deadlock-free and maximally overlapped, like Dask's
concurrent comms.
"""

from __future__ import annotations

import numpy as np

from repro.apps.dasklite.array import DistArray
from repro.mpi.request import waitall

__all__ = ["transpose_sum", "elementwise_add"]

#: chunk tags sit inside the point-to-point block, ``[0, P2P_TAGS)``
_TAG_BASE = 7_000


def _chunk_tag(grid, i: int, j: int) -> int:
    return _TAG_BASE + grid.flat_index(i, j)


def transpose_sum(comm, x: DistArray) -> DistArray:
    """Compute ``y = x + x.T`` (generator subroutine).

    Every worker sends each owned chunk (j, i) whose transpose
    destination (i, j) is remote, receives the mirror chunks it needs,
    and adds.  Returns the distributed result ``y`` with the same
    placement as ``x``.
    """
    grid = x.grid
    y = DistArray(grid, x.worker, x.n_workers, x.dtype)

    sends = []
    recvs = {}
    for (i, j) in x.owned():
        # The owner of output (j, i) needs our chunk (i, j).
        dest = x.owner_of(j, i)
        if dest != x.worker:
            sends.append(comm.isend(x.chunks[(i, j)], dest, _chunk_tag(grid, i, j)))
        # We produce output (i, j) and need input (j, i).
        src = x.owner_of(j, i)
        if src != x.worker and (i, j) not in recvs:
            recvs[(i, j)] = comm.irecv(src, _chunk_tag(grid, j, i))

    for (i, j) in x.owned():
        if (i, j) in recvs:
            payload = yield from recvs[(i, j)].wait()
            # MPI delivers a flat device buffer; restore the chunk's
            # shape (the receiver knows the geometry, as in real Dask).
            mirror = np.asarray(payload).reshape(grid.chunk_shape(j, i))
        else:
            mirror = x.chunks[(j, i)]
        y.chunks[(i, j)] = x.chunks[(i, j)] + mirror.T
    yield from waitall(sends)
    return y


def elementwise_add(comm, a: DistArray, b: DistArray) -> DistArray:
    """``a + b`` for identically-chunked, identically-placed arrays —
    no communication, provided for workload composition."""
    out = DistArray(a.grid, a.worker, a.n_workers, a.dtype)
    for key in a.owned():
        out.chunks[key] = a.chunks[key] + b.chunks[key]
    return out
    yield  # pragma: no cover - keeps the generator-subroutine contract
