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

Algorithms (classic MPICH choices for large messages on small ranks),
each written once: *who talks to whom* is a schedule — a pure function
of ``(size, rank, root)`` returning a tree or exchange steps as data —
and *what travels* is a plane, raw arrays or packed wire images (the
one ``isend``/``irecv`` pair carries either), chosen in :func:`_plane`:

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
Internal messages use tags from ``COLL_TAG_BASE`` up, which the public
point-to-point calls refuse, so a user message never meets them; the
collectives issue their hops through ``Communicator._isend``/``_irecv``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import MpiError
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


#: What travels, as generator subroutines: user data to the plane's
#: currency, back, and a held block combined with an arrival.
_Plane = namedtuple("_Plane", "pack unpack reduce")


def _same(data):
    """Raw-plane ``pack``/``unpack``; no yield — zero events, zero spans."""
    return data
    yield


def _raw_reduce(held, local, arrived, op):
    """Raw-plane ``reduce`` (``comm.reduce_wires``' contract); no yield."""
    out = op(held, arrived)
    return out, out
    yield


def _plane(comm, data=None, op=None) -> _Plane:
    """The plane of one call, chosen here and nowhere else: wire images
    when the config keeps data compressed across hops (and ``data``, if
    given, is compressible) — for a reduction only with a codec that
    combines images directly, else every hop would decode and re-encode
    anyway — or raw arrays, each hop compressing (or not) by itself."""
    if comm.keep_compressed_active(data) \
            and (op is None or comm.wire_reduce_capable(op)):
        return _Plane(comm.pack_wire, comm.unpack_wire, comm.reduce_wires)
    return _Plane(_same, _same, _raw_reduce)


def _send(comm, data, dest: int, tag: int):
    """Start a collective's send: ``comm.isend`` on a collective tag."""
    return comm._isend(data, dest, tag, comm._open_span())[0]


def _recv(comm, source: int, tag: int):
    """Start a collective's receive: ``comm.irecv`` on a collective tag."""
    return comm._irecv(source, tag, comm._open_span())


def _rel(comm, root: int, what: str) -> int:
    """This rank's position relative to ``root``, validated here: the
    tree arithmetic would wrap a bad root onto another rank, silently."""
    if not (0 <= root < comm.size):
        raise MpiError(f"{what} root {root} out of range [0, {comm.size})")
    return (comm.rank - root) % comm.size


def _binomial(size: int, rel: int) -> tuple:
    """``(parent, children)`` of root-relative rank ``rel``: the parent
    owns our lowest set bit (``None`` at the root), the children are
    ``rel`` plus each bit below it, highest first — the order ``bcast``
    forwards in; ``reduce`` combines in the mirror order."""
    children, mask = [], 1
    while mask < size and not rel & mask:
        if rel + mask < size:
            children.append(rel | mask)
        mask <<= 1
    return (rel & ~mask if rel else None), children[::-1]


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


def _ring_steps(size: int, rank: int, start: int, tag: int):
    """One pass around the ring: send right, receive from the left, the
    block received at one step is the block sent at the next.  Generated
    on demand: as lists, a 1,024-rank pass is ~1M tuples job-wide."""
    right, left = (rank + 1) % size, (rank - 1) % size
    walk = _ring_schedule(size, start)
    for s in range(size - 1):
        yield walk[s], right, walk[s + 1], left, tag


def _rdouble_steps(size: int, rank: int):
    """Recursive doubling: log2(size) exchanges of the one block."""
    for k in range((size - 1).bit_length()):
        yield 0, rank ^ (1 << k), 0, rank ^ (1 << k), _T_REDUCE


def _pairwise_steps(size: int, rank: int):
    """Pairwise: step ``k`` sends to ``rank + k``, receives from ``rank - k``."""
    for k in range(1, size):
        dst, src = (rank + k) % size, (rank - k) % size
        yield dst, dst, src, src, _T_ALLTOALL + k


def _dissemination_steps(size: int, rank: int):
    """Dissemination barrier: round ``k`` signals ``2**k`` ranks ahead
    with the token in block 0; what arrives lands in block 1."""
    for k in range((size - 1).bit_length()):
        dist = 1 << k
        yield 0, (rank + dist) % size, 1, (rank - dist) % size, _T_BARRIER + k


class _Exchange:
    """One rank's pass over ``(send_block, dst, recv_block, src, tag)``
    steps, advanced from request completions.

    Per step: start the send and the receive, take the arrival, then
    the send's completion, then store the arrival in its block.  A step
    that only stores and has a step after it is driven from here:
    ``Request.complete()`` of its receive calls :meth:`succeed`, which —
    the send being complete — stores the arrival and issues the next
    step from a ``call_later`` entry, where the rank's process used to
    resume through its generator chain.  Every other step resumes that
    process on :attr:`wake`, in the place ``Request.wait()`` put its
    event: one that combines (a plane's ``reduce`` runs kernels on the
    simulated clock), the last one, and a driven step whose send is
    still pending (the process waits for it as it always did).  So
    every same-instant event keeps its place in the order.  A step's
    send and receive are issued back to back, so an eager send's start
    event also posts the receive (``Communicator._irecv``'s ``after``).

    A hop issued from that entry runs in no process: it carries the
    collective's span as its parent explicitly."""

    __slots__ = ("_comm", "_blocks", "_steps", "_next", "_stores",
                 "_parent", "recv_block", "sreq", "wake")

    def __init__(self, comm, blocks: list, steps, stores: bool):
        self._comm = comm
        self._blocks = blocks
        self._steps = iter(steps)
        self._next = next(self._steps, None)
        self._stores = stores
        tracer = comm.sim.tracer
        self._parent = tracer.current_span() if tracer is not None else None
        #: the block and the send of the step in flight
        self.recv_block = self.sreq = None
        #: what the rank's process waits on
        self.wake = None

    def start(self) -> bool:
        """From the rank's process: issue the next step, with a fresh
        :attr:`wake`; False once no step is left."""
        if self._next is None:
            return False
        self.wake = self._comm.sim.event()
        self._issue()
        return True

    def _issue(self) -> None:
        send_block, dst, self.recv_block, src, tag = self._next
        self._next = next(self._steps, None)
        comm = self._comm
        self.sreq, op = comm._isend(self._blocks[send_block], dst, tag,
                                    self._parent)
        comm._irecv(src, tag, self._parent, op).notify(
            self if self._stores and self._next is not None else self.wake)

    def succeed(self, arrived) -> None:
        """A driven step's receive completed."""
        sreq = self.sreq
        if sreq._done and sreq._failed is None:
            sreq.sim.call_later(0.0, self._advance, arrived)
        else:
            self.wake.succeed(arrived)

    def _advance(self, arrived) -> None:
        self._blocks[self.recv_block] = arrived
        self._issue()

    def fail(self, exc) -> None:
        """A driven step's receive failed: the rank's process raises it."""
        self.wake.fail(exc)

    def defuse(self) -> None:
        self.wake.defuse()


def _exchange(comm, blocks: list, steps, combine=None, local=None, op=None):
    """Run ``(send_block, dst, recv_block, src, tag)`` steps over
    ``blocks`` (:class:`_Exchange`): each arrival is stored in its block
    or ``combine``-d (a plane's ``reduce``) by ``op`` onto the block held
    there; ``local[i]`` is the raw array ``blocks[i]`` encodes here.
    The generator resumes for the steps the driver hands back."""
    ex = _Exchange(comm, blocks, steps, combine is None)
    while ex.start():
        arrived = yield ex.wake
        yield from ex.sreq.wait()
        i = ex.recv_block
        if combine is None:
            blocks[i] = arrived
        else:
            blocks[i], local[i] = yield from combine(blocks[i], local[i],
                                                     arrived, op)


def _traced(fn):
    """Wrap a collective in a per-rank ``collective`` span; the
    point-to-point hops it issues nest underneath it in the trace."""

    @functools.wraps(fn)
    def wrapper(comm, *args, **kwargs):
        with trace_scope(comm.sim, "collective", fn.__name__,
                         rank=comm.grank, size=comm.size,
                         comm=comm.comm_id, coll_seq=comm.next_coll_seq()):
            result = yield from fn(comm, *args, **kwargs)
        return result

    return wrapper


@_traced
def bcast(comm, data: Any, root: int = 0):
    """Binomial-tree broadcast; returns the data on every rank.

    Keep-compressed mode: the root packs once, interior ranks relay the
    wire image to their subtrees before (and while) decoding their own
    copy."""
    size = comm.size
    parent, children = _binomial(size, _rel(comm, root, "bcast"))
    if size == 1:
        return data
    plane = _plane(comm)
    if parent is None:
        held = yield from plane.pack(data)
    else:
        held = yield from _recv(comm, (parent + root) % size, _T_BCAST).wait()
    reqs = [_send(comm, held, (child + root) % size, _T_BCAST)
            for child in children]
    # Decode the local copy while the relays to the subtree are in
    # flight — the single decompression of the keep-compressed path.
    if parent is not None:
        data = yield from plane.unpack(held)
    for r in reqs:
        yield from r.wait()
    return data


@_traced
def gather(comm, data: Any, root: int = 0):
    """Linear gather; returns the list of contributions at the root,
    ``None`` elsewhere."""
    size = comm.size
    if _rel(comm, root, "gather") == 0:
        out: list = [None] * size
        out[root] = data
        reqs = {src: _recv(comm, src, _T_GATHER) for src in range(size) if src != root}
        for src, req in reqs.items():
            out[src] = yield from req.wait()
        return out
    yield from _send(comm, data, root, _T_GATHER).wait()
    return None


@_traced
def scatter(comm, chunks, root: int = 0):
    """Linear scatter of ``chunks`` (a list of ``size`` items at the
    root); returns this rank's chunk.  Keep-compressed mode packs each
    chunk once and ships the wire image directly."""
    size = comm.size
    plane = _plane(comm)
    if _rel(comm, root, "scatter") == 0:
        if chunks is None or len(chunks) != size:
            raise MpiError(f"scatter needs exactly {size} chunks at the root")
        reqs = []
        for dst in range(size):
            if dst != root:
                held = yield from plane.pack(chunks[dst])
                reqs.append(_send(comm, held, dst, _T_SCATTER))
        for r in reqs:
            yield from r.wait()
        return chunks[root]
    held = yield from _recv(comm, root, _T_SCATTER).wait()
    return (yield from plane.unpack(held))


@_traced
def allgather(comm, data: Any):
    """Ring allgather; returns the list of all contributions.

    Keep-compressed mode: every rank packs its own contribution once;
    the ring then relays wire images — a block travels ``size - 1``
    hops but is compressed exactly once and decompressed once per
    consumer."""
    size, rank = comm.size, comm.rank
    blocks: list = [None] * size
    if size > 1:
        plane = _plane(comm)
        blocks[rank] = yield from plane.pack(data)
        yield from _exchange(comm, blocks,
                             _ring_steps(size, rank, rank, _T_ALLGATHER))
        for i in range(size):
            if i != rank:
                blocks[i] = yield from plane.unpack(blocks[i])
    blocks[rank] = data
    return blocks


@_traced
def reduce(comm, data: Any, root: int = 0, op: Optional[Callable] = None):
    """Binomial-tree reduction; returns the result at the root,
    ``None`` elsewhere."""
    size = comm.size
    op = np.add if op is None else op
    parent, children = _binomial(size, _rel(comm, root, "reduce"))
    result = data
    for child in reversed(children):
        contrib = yield from _recv(comm, (child + root) % size, _T_REDUCE).wait()
        result = op(result, contrib)
    if parent is None:
        return result
    yield from _send(comm, result, (parent + root) % size, _T_REDUCE).wait()
    return None


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
    :data:`ALLREDUCE_ALGORITHMS`); defaults to recursive doubling —
    log2(size) exchanges of the full vector — on power-of-two
    communicator sizes and elsewhere to the ring: reduce-scatter then
    allgather, ``2 * (size - 1)`` steps over ``1/size``-sized chunks
    (the bandwidth-optimal large-message algorithm; SNIPPETS.md snippet
    1's ``mpiAllReduceCompressed`` follows the same shape).

    When the codec supports compressed-domain reduction, the blocks are
    packed once, every reduce step combines wire images with one fused
    kernel instead of a decompress + add + recompress sequence, and the
    ring's allgather phase relays the final chunks keep-compressed.
    Otherwise the steps run on raw blocks (each hop compressing via the
    ordinary rendezvous path)."""
    size, rank = comm.size, comm.rank
    op = np.add if op is None else op
    algo = _normalize_algorithm(algorithm, size)
    if size == 1:
        return data
    if algo == "reduce_bcast":
        result = yield from reduce(comm, data, 0, op)
        return (yield from bcast(comm, result, 0))
    ring = algo == "ring"
    if not ring and size & (size - 1):
        raise MpiError(
            f"recursive_doubling needs a power-of-two size, got {size}")
    plane = _plane(comm, data, op)
    arr = np.asarray(data)
    # ``local[i]`` stays the raw running value of block ``i`` on this
    # rank: a fused reduce step decodes only the arrival.
    local = np.array_split(arr.reshape(-1), size if ring else 1)
    blocks = list(local)
    for i, block in enumerate(local):
        blocks[i] = yield from plane.pack(block)
    if ring:
        # Each index is reduced once per rank, so the raw totals are dead
        # weight afterwards (a vector per rank); the reduce-scatter leaves
        # rank r owning chunk (r + 1) % size, where the allgather starts.
        yield from _exchange(comm, blocks, _ring_steps(
            size, rank, rank, _T_RING_RS), plane.reduce, local, op)
        del local
        yield from _exchange(comm, blocks, _ring_steps(
            size, rank, (rank + 1) % size, _T_RING_AG))
    else:
        yield from _exchange(comm, blocks, _rdouble_steps(size, rank),
                             plane.reduce, local, op)
    for i, held in enumerate(blocks):
        blocks[i] = yield from plane.unpack(held)
    return np.concatenate(blocks).reshape(arr.shape)


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
    plane = _plane(comm)
    held: list = [None] * size  # in flight: block dst out, block src in
    for step in _pairwise_steps(size, rank):
        dst, src = step[0], step[2]
        held[dst] = yield from plane.pack(chunks[dst])
        yield from _exchange(comm, held, (step,))
        out[src] = yield from plane.unpack(held[src])
    return out


_BARRIER_TOKEN = np.zeros(1, dtype=np.uint8)


@_traced
def barrier(comm):
    """Dissemination barrier (log2(size) rounds of tiny messages)."""
    # The token is sent as it is: nothing to pack, so no plane.
    yield from _exchange(comm, [_BARRIER_TOKEN, None],
                         _dissemination_steps(comm.size, comm.rank))
