"""Collective algorithms built on the point-to-point protocol.

Because the rendezvous path (and hence the compression framework) sits
under every large transfer, collectives gain from compression without
any algorithm changes — exactly how the paper evaluates MPI_Bcast and
MPI_Allgather.  On top of that, the gZCCL/ZCCL observation applies:
when a collective *forwards* data across intermediate ranks, decoding
and re-encoding at every hop wastes both kernel time and latency.  With
``CompressionConfig.keep_compressed`` (the default for enabled
configs), forwarding collectives compress once at the originating
rank, relay the :class:`~repro.mpi.wire.WireImage` hop by hop — each
relay verifying only the cheap wire CRC — and decompress once per
consumer.  Reduction collectives additionally use the hZCCL-style
:meth:`~repro.compression.base.Compressor.reduce_compressed` hook to
sum in the partially-decoded domain when the codec supports it.

Algorithms (classic MPICH choices for large messages on small ranks):

* ``bcast`` — binomial tree (keep-compressed relays on interior ranks).
* ``gather``/``scatter`` — linear rooted (scatter packs per chunk).
* ``allgather`` — ring (keep-compressed relays around the ring).
* ``reduce`` — binomial tree with local combine.
* ``allreduce`` — selectable: ring (reduce-scatter + allgather, any
  size), recursive doubling (power-of-two sizes), or reduce+bcast.
  The default picks recursive doubling on power-of-two sizes and the
  ring otherwise.
* ``alltoall`` — pairwise exchange (pack once per destination chunk).
* ``barrier`` — dissemination.

All functions are generator subroutines; every rank of the
communicator must call the same collective in the same order (SPMD).
Internal messages use a high tag base to stay clear of user tags.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import CollectiveAbortedError, MpiError, RankFailedError
from repro.mpi.failstop import RevokeCause
from repro.sim import Interrupt
from repro.sim.trace import trace_scope

__all__ = [
    "bcast", "gather", "scatter", "allgather", "reduce", "allreduce",
    "alltoall", "barrier", "COLL_TAG_BASE", "ALLREDUCE_ALGORITHMS",
]

COLL_TAG_BASE = 1 << 20
_T_BCAST = COLL_TAG_BASE + 1
_T_GATHER = COLL_TAG_BASE + 2
_T_SCATTER = COLL_TAG_BASE + 3
_T_ALLGATHER = COLL_TAG_BASE + 4
_T_REDUCE = COLL_TAG_BASE + 5
_T_ALLTOALL = COLL_TAG_BASE + 6
_T_BARRIER = COLL_TAG_BASE + 7
_T_RING_RS = COLL_TAG_BASE + 8   # ring allreduce, reduce-scatter phase
_T_RING_AG = COLL_TAG_BASE + 9   # ring allreduce, allgather phase

#: names accepted by ``allreduce(..., algorithm=...)``
ALLREDUCE_ALGORITHMS = ("ring", "recursive_doubling", "reduce_bcast")


def _default_op(op: Optional[Callable]) -> Callable:
    return np.add if op is None else op


#: communicator size above which ring schedules are precomputed with
#: numpy instead of a per-step Python modulo
_RING_VECTOR_MIN = 64


def _ring_schedule(size: int, start: int) -> list[int]:
    """Block indices ``[start, start-1, ..., start-size+1] (mod size)``.

    Every ring phase walks blocks in this descending order; at 1k+
    ranks the per-step modulo in the loop body is measurable, so large
    communicators get the whole walk as one vectorized op.  Both paths
    return identical lists."""
    if size < _RING_VECTOR_MIN:
        return [(start - s) % size for s in range(size)]
    return ((start - np.arange(size)) % size).tolist()


def _traced(fn):
    """Wrap a collective in a per-rank ``collective`` span; the
    point-to-point hops it issues nest underneath it in the trace.

    With a fail-stop manager installed the wrapper is also the
    collective's ULFM guard: entering on a revoked communicator raises
    :class:`CollectiveAbortedError` immediately; a peer failure
    detected mid-collective revokes the communicator (waking every
    other blocked member) before aborting; and a revocation interrupt
    delivered by another member aborts symmetrically — so *all*
    survivors of a failed collective raise the same error
    deterministically.  Without a fail-stop plan the fs-None fast path
    is byte-identical to the plain traced wrapper.
    """

    @functools.wraps(fn)
    def wrapper(comm, *args, **kwargs):
        fs = comm.failstop
        coll_seq = comm.next_coll_seq()
        if fs is None:
            with trace_scope(comm.sim, "collective", fn.__name__,
                             rank=comm.grank, size=comm.size,
                             comm=comm.comm_id, coll_seq=coll_seq):
                result = yield from fn(comm, *args, **kwargs)
            return result
        comm.check_revoked()
        fs.enter_collective(comm.grank, comm.comm_id,
                            comm.sim.active_process)
        try:
            with trace_scope(comm.sim, "collective", fn.__name__,
                             rank=comm.grank, size=comm.size,
                             comm=comm.comm_id, coll_seq=coll_seq):
                result = yield from fn(comm, *args, **kwargs)
            return result
        except RankFailedError as exc:
            comm.revoke((exc.failed_rank,))
            raise CollectiveAbortedError(
                f"rank {comm.grank}: {fn.__name__} aborted — rank "
                f"{exc.failed_rank} failed",
                failed_ranks=(exc.failed_rank,),
                collective=fn.__name__) from exc
        except Interrupt as intr:
            cause = intr.cause
            if isinstance(cause, RevokeCause) \
                    and cause.comm_id == comm.comm_id:
                raise CollectiveAbortedError(
                    f"rank {comm.grank}: {fn.__name__} aborted — "
                    f"communicator {comm.comm_id} revoked (failed ranks "
                    f"{sorted(cause.failed_ranks)})",
                    failed_ranks=cause.failed_ranks,
                    collective=fn.__name__) from intr
            raise
        finally:
            fs.exit_collective(comm.grank, comm.comm_id)

    return wrapper


@_traced
def bcast(comm, data: Any, root: int = 0):
    """Binomial-tree broadcast; returns the data on every rank.

    Keep-compressed mode: the root packs once, interior ranks relay the
    wire image to their subtrees before (and while) decoding their own
    copy."""
    size, rank = comm.size, comm.rank
    if not (0 <= root < size):
        raise MpiError(f"bcast root {root} out of range")
    if size == 1:
        return data
    if comm.keep_compressed_active():
        result = yield from _bcast_wire(comm, data, root)
        return result
    rel = (rank - root) % size

    # Receive from the parent (the peer that owns our highest set bit).
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            data = yield from comm.recv(parent, _T_BCAST)
            break
        mask <<= 1
    # Forward to children below that bit.
    mask >>= 1
    reqs = []
    while mask > 0:
        if rel + mask < size and not (rel & mask):
            child = ((rel | mask) + root) % size
            reqs.append(comm.isend(data, child, _T_BCAST))
        mask >>= 1
    for r in reqs:
        yield from r.wait()
    return data


def _bcast_wire(comm, data: Any, root: int):
    """Binomial tree over wire images: pack once at the root, relay."""
    size, rank = comm.size, comm.rank
    rel = (rank - root) % size
    if rank == root:
        wire = yield from comm.pack_wire(data)
        mask = 1
        while mask < size:
            mask <<= 1
    else:
        wire = None
        mask = 1
        while mask < size:
            if rel & mask:
                parent = ((rel & ~mask) + root) % size
                wire = yield from comm.recv_wire(parent, _T_BCAST)
                break
            mask <<= 1
    mask >>= 1
    reqs = []
    while mask > 0:
        if rel + mask < size and not (rel & mask):
            child = ((rel | mask) + root) % size
            reqs.append(comm.isend_wire(wire, child, _T_BCAST))
        mask >>= 1
    # Decode the local copy while the relays to the subtree are in
    # flight — the single decompression of the keep-compressed path.
    out = data if rank == root else (yield from comm.unpack_wire(wire))
    for r in reqs:
        yield from r.wait()
    return out


@_traced
def gather(comm, data: Any, root: int = 0):
    """Linear gather; returns the list of contributions at the root,
    ``None`` elsewhere."""
    size, rank = comm.size, comm.rank
    if rank == root:
        out: list = [None] * size
        out[rank] = data
        reqs = {src: comm.irecv(src, _T_GATHER) for src in range(size) if src != root}
        for src, req in reqs.items():
            out[src] = yield from req.wait()
        return out
    yield from comm.send(data, root, _T_GATHER)
    return None


@_traced
def scatter(comm, chunks, root: int = 0):
    """Linear scatter of ``chunks`` (a list of ``size`` items at the
    root); returns this rank's chunk."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if chunks is None or len(chunks) != size:
            raise MpiError(f"scatter needs exactly {size} chunks at the root")
        if comm.keep_compressed_active():
            reqs = []
            for dst in range(size):
                if dst == root:
                    continue
                wire = yield from comm.pack_wire(chunks[dst])
                reqs.append(comm.isend_wire(wire, dst, _T_SCATTER))
        else:
            reqs = [comm.isend(chunks[dst], dst, _T_SCATTER)
                    for dst in range(size) if dst != root]
        for r in reqs:
            yield from r.wait()
        return chunks[rank]
    if comm.keep_compressed_active():
        wire = yield from comm.recv_wire(root, _T_SCATTER)
        data = yield from comm.unpack_wire(wire)
        return data
    data = yield from comm.recv(root, _T_SCATTER)
    return data


@_traced
def allgather(comm, data: Any):
    """Ring allgather; returns the list of all contributions.

    Keep-compressed mode: every rank packs its own contribution once;
    the ring then relays wire images — a block travels ``size - 1``
    hops but is compressed exactly once and decompressed once per
    consumer."""
    size, rank = comm.size, comm.rank
    out: list = [None] * size
    out[rank] = data
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    walk = _ring_schedule(size, rank)
    if comm.keep_compressed_active():
        wires: list = [None] * size
        wires[rank] = yield from comm.pack_wire(data)
        for s in range(size - 1):
            recv_block = walk[s + 1]
            wires[recv_block] = yield from comm.sendrecv_wire(
                wires[walk[s]], right, left, _T_ALLGATHER, _T_ALLGATHER
            )
        for i in range(size):
            if i != rank:
                out[i] = yield from comm.unpack_wire(wires[i])
        return out
    for s in range(size - 1):
        recv_block = walk[s + 1]
        received = yield from comm.sendrecv(
            out[walk[s]], right, left, _T_ALLGATHER, _T_ALLGATHER
        )
        out[recv_block] = received
    return out


@_traced
def reduce(comm, data: Any, root: int = 0, op: Optional[Callable] = None):
    """Binomial-tree reduction; returns the result at the root,
    ``None`` elsewhere."""
    size, rank = comm.size, comm.rank
    op = _default_op(op)
    rel = (rank - root) % size
    result = data
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            yield from comm.send(result, parent, _T_REDUCE)
            return None
        peer_rel = rel | mask
        if peer_rel < size:
            contrib = yield from comm.recv(((peer_rel) + root) % size, _T_REDUCE)
            result = op(result, contrib)
        mask <<= 1
    return result


def _normalize_algorithm(algorithm: Optional[str], size: int) -> str:
    if algorithm is None:
        return "recursive_doubling" if size & (size - 1) == 0 else "ring"
    name = algorithm.replace("-", "_")
    if name in ("rdouble", "rd"):
        name = "recursive_doubling"
    if name not in ALLREDUCE_ALGORITHMS:
        raise MpiError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"known: {ALLREDUCE_ALGORITHMS}"
        )
    return name


@_traced
def allreduce(comm, data: Any, op: Optional[Callable] = None,
              algorithm: Optional[str] = None):
    """Allreduce with a selectable algorithm (see
    :data:`ALLREDUCE_ALGORITHMS`); defaults to recursive doubling on
    power-of-two communicator sizes and the ring elsewhere."""
    size = comm.size
    op = _default_op(op)
    algo = _normalize_algorithm(algorithm, size)
    if size == 1:
        return data
    if algo == "reduce_bcast":
        result = yield from reduce(comm, data, 0, op)
        result = yield from bcast(comm, result, 0)
        return result
    if algo == "recursive_doubling":
        if size & (size - 1):
            raise MpiError(
                f"recursive_doubling needs a power-of-two size, got {size}"
            )
        result = yield from _allreduce_rdouble(comm, data, op)
        return result
    result = yield from _allreduce_ring(comm, data, op)
    return result


def _allreduce_rdouble(comm, data: Any, op: Callable):
    """Recursive doubling: log2(size) exchanges of the full vector.

    When the codec supports compressed-domain reduction, the vector is
    packed once and every step combines wire images with one fused
    kernel instead of a decompress + add + recompress sequence."""
    size, rank = comm.size, comm.rank
    if comm.keep_compressed_active(data) and comm.wire_reduce_capable(op):
        total = np.asarray(data).reshape(-1)
        acc = yield from comm.pack_wire(total)
        mask = 1
        while mask < size:
            peer = rank ^ mask
            received = yield from comm.sendrecv_wire(
                acc, peer, peer, _T_REDUCE, _T_REDUCE
            )
            # ``total`` is the running sum ``acc`` encodes: only the
            # arrival is decoded.
            acc, total = yield from comm.reduce_wires(acc, total, received, op)
            mask <<= 1
        result = yield from comm.unpack_wire(acc)
        return result.reshape(np.asarray(data).shape)
    result = data
    mask = 1
    while mask < size:
        peer = rank ^ mask
        received = yield from comm.sendrecv(
            result, peer, peer, _T_REDUCE, _T_REDUCE
        )
        result = op(result, received)
        mask <<= 1
    return result


def _allreduce_ring(comm, data: Any, op: Callable):
    """Ring allreduce: reduce-scatter then allgather, ``2 * (size - 1)``
    steps over ``1/size``-sized chunks (the bandwidth-optimal large-
    message algorithm; SNIPPETS.md snippet 1's ``mpiAllReduceCompressed``
    follows the same shape).

    Both phases run over wire images when the codec supports
    compressed-domain reduction: the reduce-scatter combines incoming
    chunks with fused kernels and the allgather phase relays the final
    chunks keep-compressed.  Otherwise the reduce-scatter runs on raw
    chunks (each hop compressing via the ordinary rendezvous path).
    """
    size, rank = comm.size, comm.rank
    arr = np.asarray(data)
    flat = arr.reshape(-1)
    chunks = np.array_split(flat, size)
    right = (rank + 1) % size
    left = (rank - 1) % size

    # Precomputed descending walks for both phases: the reduce-scatter
    # starts at ``rank``, the allgather at ``rank + 1`` (rank r owns
    # the fully-reduced chunk (r + 1) % size after the first phase).
    rs_walk = _ring_schedule(size, rank)
    ag_walk = _ring_schedule(size, (rank + 1) % size)

    if comm.keep_compressed_active(data) and comm.wire_reduce_capable(op):
        state: list = []
        for c in chunks:
            wire = yield from comm.pack_wire(c)
            state.append(wire)
        for s in range(size - 1):
            recv_idx = rs_walk[s + 1]
            received = yield from comm.sendrecv_wire(
                state[rs_walk[s]], right, left, _T_RING_RS, _T_RING_RS
            )
            # Each index is reduced once per rank, onto the chunk this
            # rank packed itself — it holds that operand raw.
            state[recv_idx], _ = yield from comm.reduce_wires(
                state[recv_idx], chunks[recv_idx], received, op
            )
        # Walk the reduced chunks around the ring keep-compressed.
        for s in range(size - 1):
            state[ag_walk[s + 1]] = yield from comm.sendrecv_wire(
                state[ag_walk[s]], right, left, _T_RING_AG, _T_RING_AG
            )
        parts = []
        for wire in state:
            part = yield from comm.unpack_wire(wire)
            parts.append(part)
        return np.concatenate(parts).reshape(arr.shape)

    acc = [np.array(c) for c in chunks]
    for s in range(size - 1):
        recv_idx = rs_walk[s + 1]
        received = yield from comm.sendrecv(
            acc[rs_walk[s]], right, left, _T_RING_RS, _T_RING_RS
        )
        acc[recv_idx] = op(acc[recv_idx], received)
    for s in range(size - 1):
        acc[ag_walk[s + 1]] = yield from comm.sendrecv(
            acc[ag_walk[s]], right, left, _T_RING_AG, _T_RING_AG
        )
    return np.concatenate(acc).reshape(arr.shape)


@_traced
def alltoall(comm, chunks):
    """Pairwise-exchange alltoall of ``size`` chunks; returns the
    chunks received from each rank.  Keep-compressed mode packs each
    destination chunk once and ships the wire image directly."""
    size, rank = comm.size, comm.rank
    if chunks is None or len(chunks) != size:
        raise MpiError(f"alltoall needs exactly {size} chunks")
    out: list = [None] * size
    out[rank] = chunks[rank]
    use_wires = comm.keep_compressed_active()
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        if use_wires:
            wire = yield from comm.pack_wire(chunks[dst])
            received = yield from comm.sendrecv_wire(
                wire, dst, src, _T_ALLTOALL + step, _T_ALLTOALL + step
            )
            out[src] = yield from comm.unpack_wire(received)
        else:
            out[src] = yield from comm.sendrecv(
                chunks[dst], dst, src, _T_ALLTOALL + step, _T_ALLTOALL + step
            )
    return out


_BARRIER_TOKEN = np.zeros(1, dtype=np.uint8)


@_traced
def barrier(comm):
    """Dissemination barrier (log2(size) rounds of tiny messages)."""
    size, rank = comm.size, comm.rank
    k = 0
    dist = 1
    while dist < size:
        dst = (rank + dist) % size
        src = (rank - dist) % size
        yield from comm.sendrecv(
            _BARRIER_TOKEN, dst, src, _T_BARRIER + k, _T_BARRIER + k
        )
        dist <<= 1
        k += 1
