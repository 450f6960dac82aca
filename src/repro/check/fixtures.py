"""Known-bad fixtures proving each check pass fails loudly.

A checker that silently passes everything is worse than no checker, so
``repro check --selftest`` (and ``tests/test_check_*.py``) runs every
pass against a fixture carrying exactly the defect the pass exists to
catch and asserts it is reported:

* :data:`BAD_LINT_SOURCE` — seeds findings for every linter rule
  (RPR001..RPR008);
* :func:`overlap_records` — two spans overlapping on one ``stream0``
  lane (a serial-resource race);
* :func:`acausal_records` — a rendezvous message whose ``cts`` precedes
  its ``rts`` and whose wire transfer starts before the ``cts``
  completes;
* :func:`early_retry_records` — a retransmitted message whose second
  ``receiver_complete`` starts before the retransmission landed: only
  pairing each completion with the transfer of its own attempt sees it;
* :func:`bad_collective_records` — keep-compressed collective hops
  committing all three collective-causality crimes: a relayed hop that
  dropped the originating seq, a wire span outside any collective span
  on its rank, and an ``origin_seq`` no pack/reduce span minted;
* :func:`run_double_release` / :func:`run_use_after_free` /
  :func:`run_leak` — minimal simulations committing each buffer
  lifecycle crime under an enabled :class:`BufferSanitizer`; callers
  assert the distinct exception type;
* :func:`run_buffer_race` — two processes writing one buffer checkout
  with no happens-before edge; the HB race detector must raise
  :class:`~repro.errors.BufferRaceError`;
* :func:`message_race_records` — a wildcard receive matched one of two
  concurrent tag-compatible sends from different ranks;
* :func:`deadlock_records` — three ranks blocked in an rts cycle, the
  wait-for graph the HB deadlock analyzer must explain;
* :func:`bad_wire_records` — WireImage typestate crimes (double
  unpack, unpack of an unminted image).
"""

from __future__ import annotations

import numpy as np

from repro.check.asan import BufferSanitizer
from repro.gpu.device import Device
from repro.gpu.pool import BufferPool
from repro.network.presets import machine_preset
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord

__all__ = ["BAD_LINT_SOURCE", "overlap_records", "acausal_records",
           "early_retry_records", "bad_collective_records",
           "run_double_release", "run_use_after_free", "run_leak",
           "run_buffer_race", "message_race_records", "deadlock_records",
           "bad_wire_records"]

#: one violation per linter rule; lint_source() must flag every code
BAD_LINT_SOURCE = '''\
import os
import random
import time

from numpy.random import shuffle


def snapshot_key(obj):
    stamp = time.time()                    # RPR001
    jitter = random.random()               # RPR002
    salt = hash(repr(obj))                 # RPR003
    table = {}
    table[id(obj)] = stamp + jitter + salt # RPR004
    if os.environ.get("FAST"):             # RPR005
        for item in {1, 2, 3}:             # RPR006
            table[item] = item
    assert table                           # RPR007
    shuffle(table)                         # RPR008
    return table
'''


def _rec(t0, t1, category, label, meta=None, rank=0, track="main",
         span_id=0, parent_id=None):
    return TraceRecord(t0, t1, category, label, meta or {}, rank, track,
                       span_id, parent_id)


def overlap_records() -> list[TraceRecord]:
    """Two kernels overlapping on one capacity-1 stream lane."""
    return [
        _rec(0.0, 2e-6, "compression_kernel", "mpc_part0",
             track="stream0", span_id=1),
        _rec(1e-6, 3e-6, "compression_kernel", "mpc_part1",
             track="stream0", span_id=2),
    ]


def acausal_records() -> list[TraceRecord]:
    """A message whose handshake runs backwards: cts before rts, wire
    transfer before the cts completes."""
    seq = {"seq": 9}
    return [
        _rec(0.0, 1e-6, "pipeline", "sender_prepare", dict(seq), span_id=1),
        _rec(3e-6, 4e-6, "pipeline", "rts", dict(seq), span_id=2),
        _rec(1e-6, 2e-6, "pipeline", "cts", dict(seq), rank=1, span_id=3),
        _rec(1.5e-6, 5e-6, "pipeline", "wire_transfer",
             dict(seq, nbytes=64), span_id=4),
        _rec(6e-6, 7e-6, "pipeline", "receiver_complete", dict(seq),
             rank=1, span_id=5),
    ]


def early_retry_records() -> list[TraceRecord]:
    """A message delivered twice (the first attempt arrived corrupted):
    the retry's ``receiver_complete`` begins at 5us, after the *first*
    transfer landed (3us) but before its own did (7us)."""
    seq = {"seq": 4}
    retry = dict(seq, attempt=1)
    return [
        _rec(0.0, 1e-6, "pipeline", "rts", dict(seq), span_id=1),
        _rec(1e-6, 2e-6, "pipeline", "cts", dict(seq), rank=1, span_id=2),
        _rec(2e-6, 3e-6, "pipeline", "wire_transfer",
             dict(seq, nbytes=64), span_id=3),
        _rec(3e-6, 4e-6, "pipeline", "receiver_complete", dict(seq),
             rank=1, span_id=4),
        _rec(6e-6, 7e-6, "pipeline", "wire_transfer",
             dict(retry, nbytes=64), span_id=5),
        _rec(5e-6, 8e-6, "pipeline", "receiver_complete", dict(retry),
             rank=1, span_id=6),
    ]


def bad_collective_records() -> list[TraceRecord]:
    """Keep-compressed collective hops with three distinct defects:
    a relayed receiver_complete that dropped the originating seq, an
    unpack_wire outside any collective span on its rank, and an rts
    whose origin_seq no pack_wire/reduce_wire span minted."""
    return [
        _rec(0.0, 5e-6, "collective", "bcast", {"size": 4}, span_id=1),
        _rec(0.5e-6, 1e-6, "pipeline", "pack_wire",
             {"origin_seq": 42, "nbytes": 4096}, span_id=2),
        # relayed hop seq 7: rts + wire carry the origin, the
        # receiver_complete DROPPED it
        _rec(1e-6, 1.2e-6, "pipeline", "rts",
             {"seq": 7, "origin_seq": 42}, span_id=3),
        _rec(1.5e-6, 2e-6, "pipeline", "wire_transfer",
             {"seq": 7, "origin_seq": 42, "nbytes": 64}, span_id=4),
        _rec(2e-6, 2.5e-6, "pipeline", "receiver_complete",
             {"seq": 7, "wire_nbytes": 64}, rank=1, span_id=5),
        # rank 1 unpacks the image with NO collective span on rank 1
        _rec(3e-6, 4e-6, "pipeline", "unpack_wire",
             {"origin_seq": 42, "nbytes": 4096}, rank=1, span_id=6),
        # an origin nobody minted
        _rec(2.5e-6, 3e-6, "pipeline", "rts",
             {"seq": 8, "origin_seq": 99}, span_id=7),
    ]


def _pool_sim() -> tuple[Simulator, BufferPool]:
    sim = Simulator()
    sim.asan = BufferSanitizer()
    device = Device(sim, machine_preset("longhorn").device, device_id=0)
    return sim, BufferPool(device, 4096, count=1)


def run_double_release() -> None:
    """Release the same pooled buffer twice; the sanitizer must raise
    :class:`~repro.errors.DoubleReleaseError` on the second."""
    sim, pool = _pool_sim()

    def proc():
        buf = yield from pool.acquire(1024, label="victim")
        yield from pool.release(buf)
        yield from pool.release(buf)

    sim.run_process(proc())


def run_use_after_free() -> None:
    """Read a buffer after returning it to the pool; the sanitizer must
    raise :class:`~repro.errors.UseAfterFreeError`."""
    sim, pool = _pool_sim()

    def proc():
        buf = yield from pool.acquire(1024, label="victim")
        buf.write(np.arange(8, dtype=np.float32))
        yield from pool.release(buf)
        buf.read()

    sim.run_process(proc())


def run_leak() -> None:
    """Check a buffer out and never return it; ``assert_clean()`` must
    raise :class:`~repro.errors.BufferLeakError`."""
    sim, pool = _pool_sim()

    def proc():
        yield from pool.acquire(1024, label="leaked")

    sim.run_process(proc())
    sim.asan.assert_clean()


def run_buffer_race() -> None:
    """Two spawned processes write the same buffer checkout with no
    happens-before edge between them; the HB race detector must raise
    :class:`~repro.errors.BufferRaceError`."""
    from repro.check.hb import HBChecker
    from repro.sim.trace import Tracer, trace_scope

    sim, pool = _pool_sim()
    sim.asan.record_accesses = True
    tracer = Tracer(sim)

    def writer(buf, label, delay):
        with trace_scope(sim, "compute", label, rank=0, track="main"):
            yield sim.timeout(delay)
            buf.write(np.arange(8, dtype=np.float32))

    def proc():
        buf = yield from pool.acquire(1024, label="shared")
        sim.process(writer(buf, "writer_a", 1e-6))
        sim.process(writer(buf, "writer_b", 2e-6))
        yield sim.timeout(1e-5)
        yield from pool.release(buf)

    sim.run_process(proc())
    checker = HBChecker(tracer, access_log=sim.asan.access_log)
    checker.assert_race_free()


def message_race_records() -> list[TraceRecord]:
    """A wildcard receive on rank 1 matched rank 0's send while a
    concurrent tag-compatible send from rank 2 also qualified — the
    match is timing-dependent."""
    return [
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 11, "dst": 1, "tag": 5}, rank=0, span_id=1),
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 12, "dst": 1, "tag": 5}, rank=2, span_id=2),
        _rec(2e-6, 2e-6, "matching", "wildcard_match",
             {"seq": 11, "src": 0, "tag": 5, "posted_tag": -1},
             rank=1, span_id=3),
    ]


def deadlock_records() -> list[TraceRecord]:
    """Three ranks each sent an rts and block on the next rank's cts:
    a 0 -> 1 -> 2 -> 0 wait-for cycle."""
    return [
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 1, "dst": 1, "tag": 0}, rank=0, span_id=1),
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 2, "dst": 2, "tag": 0}, rank=1, span_id=2),
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 3, "dst": 0, "tag": 0}, rank=2, span_id=3),
    ]


def bad_wire_records() -> list[TraceRecord]:
    """WireImage typestate crimes: rank 1 unpacks one image twice, and
    an unpack names an origin nobody minted."""
    return [
        _rec(0.0, 2e-6, "collective", "allreduce",
             {"comm": 7, "coll_seq": 0, "size": 2}, span_id=1),
        _rec(0.5e-6, 1e-6, "pipeline", "pack_wire",
             {"origin_seq": 40, "nbytes": 64}, span_id=2),
        # the double unpack
        _rec(1.2e-6, 1.4e-6, "pipeline", "unpack_wire",
             {"origin_seq": 40, "nbytes": 64}, rank=1, span_id=3),
        _rec(1.5e-6, 1.7e-6, "pipeline", "unpack_wire",
             {"origin_seq": 40, "nbytes": 64}, rank=1, span_id=4),
        # an origin nobody packed
        _rec(1.8e-6, 1.9e-6, "pipeline", "unpack_wire",
             {"origin_seq": 99, "nbytes": 64}, span_id=5),
    ]
