"""Communicator: point-to-point primitives and collective methods.

Point-to-point follows MVAPICH2's two protocols:

**Eager** (below :data:`EAGER_THRESHOLD`): envelope + payload travel
together; no handshake, no compression (small messages never cross the
compression threshold anyway) — and no simulator process either: see
:mod:`repro.mpi.eager`.

**Rendezvous** (paper Figures 3-4):

1. sender (optionally) compresses — :meth:`CompressionEngine.sender_prepare`;
2. RTS carries the piggybacked compression header to the receiver;
3. receiver matches the RTS, obtains its temporary device buffer, and
   answers CTS;
4. sender pushes the (compressed) payload across the topology;
5. receiver decompresses into the user buffer and completes.

One path carries every rendezvous message, as a
:class:`~repro.mpi.wire.WireImage`: a plain send packs one in step 1, a
relay — ``isend`` of the image it holds — skips that step.  Both sides
ask the RTS (the image's description) what a step does.  Steps 4-5 are
one data plan: every attempt is a list of DATA parts — the original
push of a pipelined message one per partition, any other attempt (a
whole image, a relayed image, a retransmission) one part carrying all
of them.  One push puts a part on the wire (:meth:`Runtime.push`), one
arrival awaits and decodes each part (:meth:`Communicator._arrive`,
:meth:`CompressionEngine.receiver_complete`) and compares the fold of
the parts' post-decode CRCs with the RTS — or, if ``rts.relayed``,
compares the wire CRC and hands the image on.  A lone part runs inline,
several run in a process each.

Each recovery rule exists once.  A transient fault while packing falls
back to an uncompressed plan (:meth:`Communicator._prepare_or_fall_back`);
a transient fault allocating staging buffers, or a post-decode CRC
mismatch on bytes the rank already holds, is retried in place
(:meth:`Communicator._retry_in_place`); an attempt that arrived wrong
is NACKed and the whole image retransmitted by one loop
(:meth:`Communicator._complete_with_retries`).

All primitives are generator subroutines (``yield from comm.send(...)``)
except ``isend``/``irecv``, which start the operation — an eager state
machine, or a rendezvous protocol process — and return a
:class:`~repro.mpi.request.Request`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import (
    BufferPoolExhaustedError,
    CompressionError,
    IntegrityError,
    MpiError,
    OutOfDeviceMemoryError,
    RendezvousTimeoutError,
    RetryExhaustedError,
)
from repro.analysis.metrics import MetricsRegistry
from repro.core.header import CompressionHeader
from repro.mpi import collectives as _coll
from repro.mpi.eager import SETUP_TIME, EagerSend, Recv
from repro.mpi.matching import ANY, P2P_TAGS
from repro.mpi.message import Cts, Rts
from repro.mpi.request import Request
from repro.mpi.wire import WireImage
from repro.sim.trace import trace_scope
from repro.utils.integrity import crc32_of_parts, payload_crc32
from repro.utils.units import KiB

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "EAGER_THRESHOLD",
           "PIPELINE_STEPS", "TAG_STRIDE"]

ANY_SOURCE = ANY
ANY_TAG = ANY

#: send protocol -> its ``mpi.sends`` series key
_SENDS_KEY = {protocol: MetricsRegistry.key("mpi.sends", protocol=protocol)
              for protocol in ("self", "eager", "wire_eager", "rndv",
                               "rndv_pipelined", "rndv_wire")}

#: tag-space stride between communicators: every tag of comm ``c`` is
#: shifted by ``c * TAG_STRIDE`` at the point-to-point boundary, so
#: messages of a derived communicator (:meth:`Communicator.subset`) can
#: never match posts of another one over the same ranks.  Sits above the
#: collective tag block (``1 << 20``); the user's point-to-point tags
#: are the ``P2P_TAGS`` below it, the only ones ``isend``/``irecv``
#: accept and ``ANY_TAG`` matches (``~(c * TAG_STRIDE)`` in the
#: matching engine).
TAG_STRIDE = 1 << 24

#: eager/rendezvous protocol switch point (MVAPICH2-GDR GPU default scale)
EAGER_THRESHOLD = 16 * KiB

#: The rendezvous pipeline's step spans (category ``"pipeline"``), in
#: protocol order across both sides — Figure 4's seven stages.  Sender
#: records sender_prepare / rts / wire_transfer / sender_release;
#: receiver records receiver_prepare / cts / receiver_complete.
PIPELINE_STEPS = (
    "sender_prepare",      # steps 1-3: decide, buffers, kernels, size, combine
    "rts",                 # step 4a: RTS carrying the piggybacked header
    "receiver_prepare",    # step 4b: receiver's temporary device buffer
    "cts",                 # step 5: clear-to-send back to the sender
    "wire_transfer",       # step 6: (compressed) payload crosses the fabric
    "receiver_complete",   # step 7: decompression kernels + restore
    "sender_release",      # post-send: return pooled buffers / temporaries
)

#: transient faults the resilience layer absorbs (retry/fallback); any
#: other exception still propagates immediately
_TRANSIENT = (CompressionError, OutOfDeviceMemoryError, BufferPoolExhaustedError)

#: what decoding a corrupted wire image can raise: every codec wraps its
#: own failures in CompressionError; ValueError/IndexError escape from
#: numpy reshaping/frombuffer on structurally-mangled streams.  Anything
#: else (a KeyboardInterrupt, a genuine bug) must propagate, not be
#: retried as if the fabric corrupted the payload.
_DECODE_ERRORS = (CompressionError, ValueError, IndexError)


class Communicator:
    """An MPI communicator bound to one rank of a running job.

    A communicator is a *view* over a group of global ranks (GPUs):
    ``rank``/``size`` are communicator-local, ``grank`` is the global
    rank this instance is bound to, and every point-to-point call
    translates local peers to global ones and shifts user tags by
    ``comm_id * TAG_STRIDE`` so traffic on different communicators can
    never cross-match.  The base (world) communicator has
    ``comm_id == 0`` and an identity group, making the translation a
    no-op.
    """

    def __init__(self, runtime, rank: int, size: int,
                 group: Optional[tuple] = None, comm_id: int = 0):
        self._rt = runtime
        self.rank = rank
        self.size = size
        self._group = tuple(group) if group is not None else tuple(range(size))
        if len(self._group) != size:
            raise MpiError(
                f"group of {len(self._group)} ranks for a size-{size} comm")
        self._comm_id = comm_id
        self._tag_shift = comm_id * TAG_STRIDE
        self._grank = self._group[rank]
        # SPMD collective counter: every member issues collectives in
        # the same order, so (comm_id, coll_seq) names one collective
        # instance across ranks — the happens-before engine groups
        # participation barriers by it.
        self._coll_seq = 0

    def next_coll_seq(self) -> int:
        """Per-communicator collective instance number (SPMD-aligned)."""
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    # -- introspection ------------------------------------------------------
    @property
    def sim(self):
        return self._rt.sim

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._rt.sim.now

    @property
    def grank(self) -> int:
        """The global rank (GPU index) this communicator view is bound to."""
        return self._grank

    @property
    def group(self) -> tuple:
        """Global ranks of the members, indexed by local rank."""
        return self._group

    @property
    def comm_id(self) -> int:
        return self._comm_id

    def device(self):
        """This rank's GPU."""
        return self._rt.device_of(self._grank)

    # -- nonblocking point-to-point ----------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Start a nonblocking send of ``data`` (a numpy array resident
        on this rank's GPU, or a packed :class:`WireImage` to relay as
        it is) to local rank ``dest``: the eager state machine below the
        threshold (and to self), else the rendezvous protocol process.
        Either starts after the per-operation software overhead.  ``tag``
        must be a point-to-point tag, in ``[0, P2P_TAGS)``."""
        if not 0 <= tag < P2P_TAGS:
            raise MpiError(f"send tag {tag} out of range [0, {P2P_TAGS})")
        return self._isend(data, dest, tag, self._open_span())[0]

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Start a nonblocking receive: post after the software
        overhead, complete on an EAGER envelope, continue as
        :meth:`_recv_proc` on an RTS.  The request's value is what was
        sent: the array, or a relayed :class:`WireImage` (verified, not
        decoded — pass it on or unpack).  ``tag`` is a point-to-point
        tag, in ``[0, P2P_TAGS)``, or ``ANY_TAG``, which matches this
        communicator's point-to-point tags only, never a collective's or
        another communicator's message."""
        if tag != ANY_TAG and not 0 <= tag < P2P_TAGS:
            raise MpiError(
                f"receive tag {tag} is neither ANY_TAG nor in [0, {P2P_TAGS})")
        return self._irecv(source, tag, self._open_span())

    def _open_span(self):
        """The span this rank has open now, if traced."""
        tracer = self._rt.sim.tracer
        return tracer.current_span() if tracer is not None else None

    def _isend(self, data: Any, dest: int, tag: int, parent):
        """:meth:`isend` on any tag of this communicator's block (the
        collectives' included), with the parent span of what it records
        given: work started from a request's completion runs outside the
        rank's process, so it cannot look its span up.  Returns the
        request and, for an eager send, its operation (for
        :meth:`_irecv`'s ``after``)."""
        if not 0 <= dest < self.size:
            raise MpiError(
                f"destination rank {dest} out of range [0, {self.size})")
        rt = self._rt
        gdest = self._group[dest]
        nbytes = (data.nbytes if isinstance(data, np.ndarray)
                  else self._payload_nbytes(data))
        req = Request(rt.sim, "isend->", gdest)
        tag += self._tag_shift
        if gdest == self._grank or nbytes < EAGER_THRESHOLD:
            return req, EagerSend(self, data, nbytes, gdest, tag, req, parent)
        sim = rt.sim
        proc = sim.process(self._send_proc(data, gdest, tag, req),
                           name=("isend", self._grank, "->", gdest),
                           delay=SETUP_TIME)
        if sim.tracer is not None:
            sim.tracer.reparent(proc, parent)
        return req, None

    def _irecv(self, source: int, tag: int, parent, after=None) -> Request:
        """:meth:`irecv` with the parent span given, as :meth:`_isend`.
        ``after`` is the eager send :meth:`_isend` just started on this
        rank, with nothing issued between: the receive is posted from
        that send's start event."""
        gsource = source
        if source != ANY_SOURCE:
            if not 0 <= source < self.size:
                raise MpiError(
                    f"source rank {source} out of range [0, {self.size})")
            gsource = self._group[source]
        req = Request(self._rt.sim, "irecv<-", gsource)
        # a wildcard matches this communicator's point-to-point tags only
        tag = tag + self._tag_shift if tag != ANY_TAG else ~self._tag_shift
        Recv(self, gsource, tag, req, parent, after)
        return req

    # -- blocking wrappers ------------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0):
        """Blocking send (generator subroutine)."""
        req = self.isend(data, dest, tag)
        yield from req.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator subroutine); returns the data."""
        req = self.irecv(source, tag)
        data = yield from req.wait()
        return data

    def sendrecv(self, senddata: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        """Concurrent send+receive; returns the received data."""
        sreq = self.isend(senddata, dest, sendtag)
        rreq = self.irecv(source, recvtag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    # -- protocol processes ------------------------------------------------------
    def _payload_nbytes(self, data: Any) -> int:
        if isinstance(data, np.ndarray):
            return int(data.nbytes)
        if isinstance(data, WireImage):
            return data.wire_nbytes
        return len(data)

    def _count_send(self, protocol: str) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            counters = tracer.metrics._counters
            key = _SENDS_KEY[protocol]
            counters[key] = counters.get(key, 0) + 1

    def _send_proc(self, payload: Any, dest: int, tag: int, req: Request):
        """Rendezvous send: pack -> send the image -> release.  An
        already-packed :class:`WireImage` skips the pack — its RTS
        re-piggybacks the *original* header — and holds no device
        buffer to release."""
        rt = self._rt
        try:
            seq = rt.next_seq()
            plan, image = None, payload
            if not isinstance(payload, WireImage):
                plan, image = yield from self._pack(rt, payload, dest, seq)
            rts = Rts.describing(image, self._grank, dest, tag, seq)
            with trace_scope(self.sim, "pipeline", "rts", rank=self._grank,
                             seq=seq, dst=dest, tag=tag, **rts.meta()):
                yield from rt.control_delay(rts)
                cts_ev = rt.matching_of(self._grank).expect_cts(seq)
                rt.matching_of(dest).deliver_envelope(rts)
            yield from self._await_cts(rt, cts_ev, dest, seq)
            parts = ([c.payload for c in plan.comps] if rts.streamed
                     else [image.payload])
            rt.register_retransmit(rts, parts)
            kernel_run = plan.kernel_run if plan is not None else None
            yield from self._each_part(
                lambda i: rt.push(rts, i, parts[i], kernel_run=kernel_run),
                len(parts), "pipe-send")
            if plan is not None:
                with trace_scope(self.sim, "pipeline", "sender_release",
                                 rank=self._grank, seq=seq, dst=dest):
                    yield from rt.engine_of(self._grank).sender_release(plan)
            self._count_send("rndv_wire" if rts.relayed else
                             "rndv_pipelined" if rts.streamed else "rndv")
            req.complete()
        except BaseException as exc:  # surfaced via the request
            req.fail(exc)

    def _pack(self, rt, data, dest: int, seq: int):
        """The pack step of a plain send: on-the-fly compression under
        the peer's circuit breaker.  Returns ``(plan, image)`` — the
        plan owns the device buffers until the release step, the image
        is what the protocol ships (never relayed: no ``wire_crc``, no
        ``origin_seq``)."""
        engine = rt.engine_of(self._grank)
        breaker = None
        force_uncompressed = False
        if engine.config.enabled:
            breaker = rt.breaker_of(self._grank, dest)
            if not breaker.allow(self.now):
                force_uncompressed = True
                rt.resilience_event("breaker_veto", rank=self._grank,
                                    dst=dest, seq=seq)
        with trace_scope(self.sim, "pipeline", "sender_prepare",
                         rank=self._grank, nbytes=self._payload_nbytes(data),
                         seq=seq, dst=dest):
            plan = yield from self._prepare_or_fall_back(
                rt, engine, data, breaker, force_uncompressed, stream=True,
                dst=dest, seq=seq)
        return plan, WireImage(plan.header, plan.payload, plan.wire_nbytes,
                               plan.crc)

    def _prepare_or_fall_back(self, rt, engine, data, breaker=None,
                              force_uncompressed: bool = False,
                              stream: bool = False, **where):
        """``sender_prepare``, and on a transient fault (kernel,
        allocation) the uncompressed fallback: the failure feeds
        ``breaker`` — a plain send's; a packed image has none — and is
        recorded as ``fallback`` with ``where`` (the step's ids)."""
        try:
            return (yield from engine.sender_prepare(
                data, force_uncompressed=force_uncompressed, stream=stream))
        except _TRANSIENT as exc:
            if breaker is not None:
                breaker.record_failure(self.now)
            rt.resilience_event("fallback", rank=self._grank, **where,
                                error=type(exc).__name__)
        return (yield from engine.sender_prepare(data, force_uncompressed=True))

    # -- timed waits -------------------------------------------------------------
    def _guarded_wait(self, ev, timeout):
        """Wait on ``ev``, racing ``timeout`` when one is armed.

        Returns ``(value, timed_out)``.  With no timeout this is a bare
        ``yield ev``: zero extra events on the fault-free path,
        preserving trace identity.
        """
        if timeout is None:
            val = yield ev
            return val, False
        timer = self.sim.timeout(timeout)
        yield self.sim.any_of([ev, timer])
        if not ev.triggered:
            return None, True
        timer.cancel()
        return ev.value, False

    def _await_cts(self, rt, cts_ev, dest: int, seq: int):
        """Wait for the CTS under the handshake timeout."""
        t = rt.resilience.handshake_timeout
        _, timed_out = yield from self._guarded_wait(cts_ev, t)
        if timed_out:
            rt.resilience_event("timeout", rank=self._grank, seq=seq,
                                dst=dest, phase="cts")
            raise RendezvousTimeoutError(
                f"rank {self._grank}: no CTS from rank {dest} for seq {seq} "
                f"within {t}s",
                diagnostic=rt.matching_report(),
            )

    def _each_part(self, step, n: int, name: str):
        """Run ``step(i)`` for the ``n`` DATA parts of one attempt and
        return their results in order: one part inline, in the caller's
        process; more, each in a process of its own (``name`` + index),
        so no part waits for another's wire or kernel."""
        if n == 1:
            return [(yield from step(0))]
        sim = self.sim
        results = yield sim.all_of([sim.process(step(i), name=f"{name}{i}")
                                    for i in range(n)])
        return [results[i] for i in range(n)]

    def _recv_proc(self, rts, req: Request):
        """Rendezvous receive, from the matched RTS onwards: prepare,
        register the DATA waiters, CTS, then the recovery loop."""
        rt = self._rt
        try:
            if not isinstance(rts, Rts):
                raise MpiError(f"unexpected envelope {rts!r}")
            engine = rt.engine_of(self._grank)
            resources = yield from self._receiver_prepare(rt, engine, rts)
            data_evs = [rt.matching_of(self._grank).expect_data(rts.seq, part=i)
                        for i in range(rts.n_parts)]
            cts = Cts(self._grank, rts.src, rts.tag, rts.seq)
            with trace_scope(self.sim, "pipeline", "cts", rank=cts.src,
                             seq=cts.seq, dst=cts.dst):
                yield from rt.control_delay(cts)
                rt.matching_of(cts.dst).deliver_cts(cts)
            req.complete((yield from self._complete_with_retries(
                rt, engine, rts, resources, data_evs)))
        except BaseException as exc:
            req.fail(exc)

    def _receiver_prepare(self, rt, engine, rts):
        """The staging buffers of the message ``rts`` describes."""
        return (yield from self._retry_in_place(
            rt, engine, rts.header, "receiver_prepare", rts.seq,
            {"seq": rts.seq, "src": rts.src}))

    # -- resilient receiver machinery ------------------------------------------
    def _retry_in_place(self, rt, engine, header, label: str, seq: int,
                        meta: dict, finish=None):
        """The one in-place retry loop: allocate ``header``'s staging
        buffers in the ``label`` pipeline span (``meta``: its ids) and
        hand them to ``finish`` when given — a generator returning
        ``(value, failed)``, ``failed`` None or the
        :class:`IntegrityError` of its check.  Under a fault plane a
        transient allocation fault (``retry``, ``stage=label``) or a
        failed check (``crc_mismatch``) backs off and tries again on the
        same inputs, up to ``max_retries`` times, and success after a
        retry records ``recovered``; otherwise the error is raised.
        Returns the buffers, or ``finish``'s value."""
        attempt = 0
        while True:
            spent = rt.faults is None or attempt >= rt.resilience.max_retries
            failed = None
            with trace_scope(self.sim, "pipeline", label, rank=self._grank,
                             **meta, **({"attempt": attempt} if attempt else {})):
                try:
                    value = yield from engine.receiver_prepare(header)
                except _TRANSIENT as exc:
                    if spent:
                        raise
                    failed = exc
                else:
                    if finish is not None:
                        value, failed = yield from finish(value)
            if failed is None:
                if attempt:
                    rt.resilience_event("recovered", rank=self._grank, seq=seq,
                                        attempts=attempt)
                return value
            if spent:
                raise failed
            attempt += 1
            if isinstance(failed, IntegrityError):
                reason = "crc_mismatch"
                rt.resilience_event(reason, rank=self._grank, seq=seq,
                                    attempt=attempt)
            else:
                reason = label
                rt.resilience_event("retry", rank=self._grank, seq=seq,
                                    stage=label, error=type(failed).__name__)
            yield from self._backoff(rt, attempt, seq, reason)

    def _backoff(self, rt, attempt: int, seq: int, reason: str):
        """Exponential backoff + jitter on the simulated clock."""
        delay = rt.resilience.backoff_delay(attempt, rt.resil_rng)
        with trace_scope(self.sim, "resilience", "backoff", rank=self._grank,
                         track="faults", seq=seq, attempt=attempt,
                         reason=reason):
            yield self.sim.timeout(delay)

    def _arrive(self, rt, engine, rts, data_evs, resources, attempt: int):
        """Attempt ``attempt`` of the message ``rts`` describes, one DATA
        part per waiter in ``data_evs``: the original push of a streamed
        message has one per partition, any other attempt one part, the
        whole image.  Each part is decoded as it lands — the whole
        image's decode takes the staging ``resources`` and releases
        them — or, relayed, has its wire CRC compared without decoding
        and is handed on.  The fold of the parts' CRCs is checked
        against the RTS.  Returns ``(value, failure, cause)``, the first
        failing part's (delivery timeout, decode error, wire CRC
        mismatch) or the fold's."""
        streamed = len(data_evs) > 1
        failures: list = []

        def arrive_part(i):
            data, timed_out = yield from self._guarded_wait(
                data_evs[i], rt.resilience.data_timeout)
            if timed_out:
                failures.append(("data_timeout", None))
                return None
            ids = {"part": i} if streamed else {"wire_nbytes": rts.wire_nbytes}
            with trace_scope(self.sim, "pipeline", "receiver_complete",
                             rank=self._grank, seq=rts.seq, src=rts.src,
                             **ids, **rts.meta(attempt)):
                if rts.relayed:  # intact wire bytes decode to ``rts.crc``
                    if payload_crc32(data.payload) != rts.wire_crc:
                        failures.append(("wire_crc_mismatch", None))
                        return None
                    return rts.image(data.payload), rts.crc
                try:
                    return (yield from engine.receiver_complete(
                        rts.header, data.payload, [] if streamed else resources,
                        i if streamed else None))
                except _DECODE_ERRORS as exc:
                    failures.append(("decode_error", exc))
                    return None

        outs = yield from self._each_part(arrive_part, len(data_evs), "pipe-recv")
        if failures:
            return (None,) + failures[0]
        crc = outs[0][1] if not streamed else crc32_of_parts(
            (crc, out.nbytes) for out, crc in outs)
        if crc != rts.crc:
            return None, "crc_mismatch", None
        if not streamed:
            return outs[0][0], None, None
        return np.concatenate([out for out, _ in outs]), None, None

    def _complete_with_retries(self, rt, engine, rts, resources, data_evs):
        """The one NACK/retransmit loop, entered with the staging
        ``resources`` and the DATA waiters ``data_evs`` registered before
        the CTS left.  Every attempt is one :meth:`_arrive` — attempt 0
        of its ``rts.n_parts`` parts, each retransmission of one, the
        whole image.  A failure (CRC mismatch, decode error, delivery
        timeout) NACKs the immediate upstream until an attempt survives
        or the retry budget is spent; staging buffers no decode took
        are released after the verdict."""
        seq = rts.seq
        attempt = 0
        while True:
            value, failure, cause = yield from self._arrive(
                rt, engine, rts, data_evs, resources, attempt)
            if failure is None:
                if resources:  # not consumed by a decode
                    yield from engine._release(resources)
                rt.retire(rts, True, attempt)
                if attempt:
                    rt.resilience_event("recovered", rank=self._grank,
                                        seq=seq, attempts=attempt)
                return value
            attempt += 1
            retained = rt.retains(seq)
            rt.resilience_event(failure, rank=self._grank, seq=seq,
                                src=rts.src, attempt=attempt)
            if not retained or attempt > rt.resilience.max_retries:
                rt.retire(rts, False, attempt)
                if resources:
                    yield from engine._release(resources)
                what = "wire image" if rts.relayed else "message"
                msg = (f"rank {self._grank}: {what} seq {seq} from rank "
                       f"{rts.src} failed ({failure}) after {attempt - 1} "
                       f"retransmission(s)")
                if failure == "data_timeout":
                    raise RendezvousTimeoutError(
                        msg, diagnostic=rt.matching_report())
                if not retained and cause is not None:
                    raise cause  # no resilience active: original error
                if failure.endswith("crc_mismatch"):
                    raise IntegrityError(msg)
                raise RetryExhaustedError(msg) from cause
            yield from self._backoff(rt, attempt, seq, failure)
            if not resources and rts.compressed:
                resources = yield from self._receiver_prepare(rt, engine, rts)
            with trace_scope(self.sim, "resilience", "nack", rank=self._grank,
                             track="faults", seq=seq, dst=rts.src,
                             attempt=attempt):
                yield from rt.control_delay(Cts(self._grank, rts.src, rts.tag, seq))
            data_evs = [rt.matching_of(self._grank).expect_data(seq, 0, attempt)]
            rt.nack(rts, attempt)

    # -- keep-compressed wire images ----------------------------------------------
    #
    # Collectives that forward data across intermediate ranks use these
    # primitives to compress *once* at the originating rank, relay the
    # resulting WireImage hop by hop (each hop verifying only the cheap
    # wire CRC), and decompress *once* at each consumer — instead of a
    # full decode/re-encode at every hop.  The spans these emit carry
    # ``origin_seq`` (never ``seq``) so message stitching and critical-
    # path tiling see only the per-hop protocol groups, while the trace
    # sanitizer can still tie every relayed hop back to its pack site.

    def pack_wire(self, data):
        """Compress ``data`` into a relayable :class:`WireImage`
        (generator subroutine).  Device staging buffers are returned
        immediately — the image itself lives in the collective's
        host-visible staging area and survives any number of sends."""
        rt = self._rt
        engine = rt.engine_of(self._grank)
        origin_seq = rt.next_seq()
        nbytes = self._payload_nbytes(data)
        with trace_scope(self.sim, "pipeline", "pack_wire", rank=self._grank,
                         nbytes=nbytes, origin_seq=origin_seq):
            plan = yield from self._prepare_or_fall_back(rt, engine, data,
                                                         seq=origin_seq)
            yield from engine.sender_release(plan)
        wire_crc = plan.wire_crc  # the raw stamp, or a lossless image's key
        if wire_crc is None:
            wire_crc = payload_crc32(plan.payload)
        return WireImage(
            header=plan.header, payload=plan.payload,
            wire_nbytes=plan.wire_nbytes, crc=plan.crc,
            wire_crc=wire_crc, origin_seq=origin_seq,
        )

    def unpack_wire(self, wire: WireImage):
        """Decode a received :class:`WireImage` into user data
        (generator subroutine) — the single decompression of the
        keep-compressed path, checked against the image's
        post-decode CRC.  The wire bytes were verified on arrival, so a
        mismatch is the decoder's (a transient kernel fault): it and a
        transient allocation fault are retried in place on the bytes
        the rank holds (:meth:`_retry_in_place`), never retransmitted."""
        engine = self._rt.engine_of(self._grank)
        seq = wire.origin_seq

        def decode(resources):
            try:
                data, got_crc = yield from engine.receiver_complete(
                    wire.header, wire.payload, resources,
                    fingerprint=wire.wire_crc)
            except BaseException:
                if resources:
                    yield from engine._release(resources)
                raise
            return data, None if got_crc == wire.crc else IntegrityError(
                f"rank {self._grank}: wire image origin_seq={seq} "
                f"failed its post-decode CRC")

        return (yield from self._retry_in_place(
            self._rt, engine, wire.header, "unpack_wire", seq,
            {"nbytes": wire.wire_nbytes, "origin_seq": seq}, decode))

    def reduce_wires(self, acc: WireImage, local, other: WireImage, op=None):
        """Combine the image this rank holds with one that arrived
        (generator subroutine): the hZCCL-style fused partial-decode +
        op + re-encode when both are compressed, a decode-and-raw-
        accumulate fallback otherwise.

        ``local`` is the raw array ``acc`` was packed from (or reduced
        into) *on this rank* — the fused step adds the decoded arrival
        onto it instead of decoding ``acc`` again.  It never travels:
        only ``acc``/``other`` and the returned image are wire
        currency.  Returns ``(wire, total)``: a fresh image with its
        own ``origin_seq``, and the raw result to pass as ``local`` of
        the next step."""
        rt = self._rt
        engine = rt.engine_of(self._grank)
        op = np.add if op is None else op
        origin_seq = rt.next_seq()
        if acc.compressed and other.compressed \
                and acc.header.algorithm == other.header.algorithm \
                and acc.header.partition_sizes is not None \
                and acc.header.n_partitions == other.header.n_partitions \
                and op is np.add:
            with trace_scope(self.sim, "pipeline", "reduce_wire",
                             rank=self._grank, nbytes=acc.wire_nbytes,
                             origin_seq=origin_seq, fused=True):
                header, payload, crc, wire_crc, total = \
                    yield from engine.reduce_wire_payload(
                        acc.header, local, other.header, other.payload,
                        other.wire_crc)
            return WireImage(
                header=header, payload=payload,
                wire_nbytes=int(header.wire_bytes), crc=crc,
                wire_crc=wire_crc, origin_seq=origin_seq,
            ), total
        # Mixed / uncompressed / non-sum: decode what needs decoding and
        # keep this accumulator raw from here on.
        with trace_scope(self.sim, "pipeline", "reduce_wire",
                         rank=self._grank, nbytes=acc.wire_nbytes,
                         origin_seq=origin_seq, fused=False):
            a = acc.payload if not acc.compressed else (yield from self.unpack_wire(acc))
            b = other.payload if not other.compressed else (yield from self.unpack_wire(other))
            out = op(a, b)
            nbytes = self._payload_nbytes(out)
        crc = payload_crc32(out)
        return WireImage(
            header=CompressionHeader.uncompressed(nbytes), payload=out,
            wire_nbytes=nbytes, crc=crc, wire_crc=crc,
            origin_seq=origin_seq,
        ), out

    def keep_compressed_active(self, data=None) -> bool:
        """True when collectives should route ``data`` through the
        keep-compressed wire-image path for this rank's config."""
        cfg = self._rt.engine_of(self._grank).config
        if not (cfg.enabled and cfg.keep_compressed):
            return False
        if data is None:
            return True
        return (isinstance(data, np.ndarray)
                and data.dtype.type in (np.float32, np.float64))

    def wire_reduce_capable(self, op) -> bool:
        """True when this rank's engine can combine compressed wire
        images directly (hZCCL-style) for reduction ``op``."""
        return self._rt.engine_of(self._grank).reduce_capable(op)

    def subset(self, granks) -> "Communicator":
        """Derive (non-collectively, host-side) a re-ranked communicator
        over global ranks ``granks``.  Every member that derives the
        same group gets the same ``comm_id``, so its traffic keeps to
        its own tag block.  As for ``MPI_Comm_create_group``, the group
        is distinct members of this communicator, the caller among them."""
        group = tuple(granks)
        if len(set(group)) != len(group) or not set(group) <= set(self._group):
            raise MpiError(f"subset group {group} is not distinct members "
                           f"of {self._group}")
        if self._grank not in group:
            raise MpiError(
                f"rank {self._grank} is not in subset group {group}")
        return self._rt.derive_comm(self._grank, group)

    # -- collectives --------------------------------------------------------------
    # The module functions themselves (generator subroutines taking the
    # communicator first): a call adds no generator frame of its own.
    bcast = _coll.bcast
    allgather = _coll.allgather
    gather = _coll.gather
    scatter = _coll.scatter
    reduce = _coll.reduce
    allreduce = _coll.allreduce
    alltoall = _coll.alltoall
    barrier = _coll.barrier
