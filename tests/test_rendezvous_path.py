"""The one rendezvous path (ISSUE 14), pinned to the parent commit.

User data, relayed wire images, pipelined sends and retransmissions all
go through one send generator, one receive generator and one recovery
loop.  ``PINS`` below was captured from the commit *before* that merge
(``python -m tests.test_rendezvous_path`` prints the table): for every
scenario the span count, the simulator's event count, the simulated
time, ``mpi.sends`` by protocol, the ``resilience.*`` counters, a hash
over every span (ids, parents, times, meta in recording order) and a
CRC of what each rank was handed.  The pipelined configs under drop /
OOM + pool-fail / compress-fail / silent-decompress plans are covered
nowhere else.

ISSUE 16 (one send-plan builder) re-captured ten ``*-pipe4`` rows, and
only their span digest / span count: event count, simulated time,
outcome and counters are still the parent's.  The comments above those
rows say why.

ISSUE 22 (codec faults through ``sim.faults``) added the ``mixed`` plan,
``compress-fail`` / ``mixed`` on collectives and the ``rehop``
(``keep_compressed=False``) collective rows, captured on *its* parent —
the ``FlakyCompressor`` proxy — before any ``src/`` edit.  Those rows
also pin the injector's final RNG state.  Its bugfix (``unpack_wire``
decodes again after a transient post-decode CRC mismatch) re-captured
the four rows that had recorded that abort: ``coll/mpc-opt`` and
``coll/zfp8-pipe4`` under ``silent`` and ``mixed``.

ISSUE 23 (one ``isend``/``irecv`` pair) moved none of the 56 rows.  Its
bugfix (``unpack_wire`` retries a transient allocation fault) added the
``alloc`` plan on every collective config, captured *after* the fix —
its parent aborts the two keep-compressed rows with the injected
``BufferPoolExhaustedError``.

ISSUE 25 (the recovery layer written once) moved none of the rows.  Its
bugfix (a retried ``receiver_prepare`` records ``recovered``, like the
other in-place retry) re-captured the five rows whose receives retried
that allocation — ``pt2pt`` ``mpc-opt`` / ``mpc-pipe4`` under
``oom+pool`` and ``coll`` ``mpc-opt`` / ``zfp8-pipe4`` / ``rehop`` under
``alloc`` — and in them only the span count, the span digest and the
``recovered`` counter: events, simulated time, outcome and the
injector's RNG state are the parent's.
"""

import hashlib
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.errors import CompressionError
from repro.faults import FaultPlan
from repro.mpi import cluster as cluster_mod
from repro.mpi.cluster import Cluster
from repro.mpi.comm import ANY_TAG
from repro.mpi.resilience import ResilienceConfig
from repro.omb.payload import make_payload
from repro.sim import Tracer
from repro.utils.units import KiB, MiB

MPC = CompressionConfig.mpc_opt()
MPC_PIPE = CompressionConfig.mpc_opt(partitions=4).with_(pipeline=True)
ZFP_PIPE = CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4)
OFF = CompressionConfig.disabled()
SZ = CompressionConfig(enabled=True, algorithm="sz")

PT2PT_CONFIGS = {"mpc-opt": MPC, "mpc-pipe4": MPC_PIPE, "zfp8-pipe4": ZFP_PIPE,
                 "off": OFF, "sz": SZ}
COLL_CONFIGS = {"mpc-opt": MPC, "off": OFF, "zfp8-pipe4": ZFP_PIPE,
                "rehop": MPC.with_(keep_compressed=False)}

PLANS = {
    "clean": None,
    "drop": FaultPlan(seed=11, drop_rate=0.3),
    "drop+corrupt": FaultPlan(seed=12, drop_rate=0.2, corrupt_rate=0.2),
    "silent": FaultPlan(seed=13, decompress_corrupt_rate=0.3),
    "oom+pool": FaultPlan(seed=14, oom_rate=0.3, pool_fail_rate=0.3),
    "compress-fail": FaultPlan(seed=15, compress_fail_rate=0.5),
    "mixed": FaultPlan(seed=20, corrupt_rate=0.1, compress_fail_rate=0.1,
                       decompress_corrupt_rate=0.2),
    # ``oom+pool``'s rates on collectives (ISSUE 23): every row completes,
    # the keep-compressed ones with retries at ``unpack_wire``
    "alloc": FaultPlan(seed=19, oom_rate=0.3, pool_fail_rate=0.3),
}
COLL_PLANS = ("clean", "drop", "drop+corrupt", "silent")
#: codec-fault plans on collectives (ISSUE 22); ``rehop`` (decode and
#: recompress at every hop) runs under these only
CODEC_PLANS = ("silent", "compress-fail", "mixed")

SCENARIOS = [("pt2pt", c, p) for c in PT2PT_CONFIGS for p in PLANS
             if p not in ("mixed", "alloc")] \
    + [("coll", c, p) for c in COLL_CONFIGS if c != "rehop" for p in COLL_PLANS]
#: added by ISSUE 22, captured on its parent: these also observe the
#: injector's final RNG state, so a missing or extra draw fails even
#: when no later fault depends on it
RNG_SCENARIOS = [("pt2pt", c, "mixed") for c in PT2PT_CONFIGS] \
    + [("coll", c, p) for c in COLL_CONFIGS for p in CODEC_PLANS
       if c == "rehop" or p not in COLL_PLANS] \
    + [("coll", c, "alloc") for c in COLL_CONFIGS]
SCENARIOS += RNG_SCENARIOS


def _crc(arr) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).view(np.uint8))


def _pt2pt(comm):
    """Three rendezvous messages one way, one back."""
    sizes = (256 * KiB, 1 * MiB, 512 * KiB)
    got = []
    if comm.rank == 0:
        for i, n in enumerate(sizes):
            yield from comm.send(make_payload("wave", n, seed=i), 1, tag=i)
        got.append((yield from comm.recv(1, tag=9)))
    else:
        for i in range(len(sizes)):
            got.append((yield from comm.recv(0, tag=i)))
        yield from comm.send(make_payload("wave", 1 * MiB, seed=7), 0, tag=9)
    return [_crc(g) for g in got]


def _coll(comm):
    """Keep-compressed relays (allgather, bcast) and the reduce step
    (ring allreduce) on six ranks, distinct data per rank."""
    mine = make_payload("wave", 384 * KiB, seed=comm.rank)
    blocks = yield from comm.allgather(mine)
    total = yield from comm.allreduce(make_payload("wave", 768 * KiB,
                                                   seed=10 + comm.rank),
                                      algorithm="ring")
    root = yield from comm.bcast(mine if comm.rank == 0 else None, root=0)
    return [_crc(b) for b in blocks] + [_crc(total), _crc(root)]


def _span_hash(tracer) -> str:
    h = hashlib.sha256()
    for r in tracer.records:
        h.update(repr((r.span_id, r.parent_id, r.t_start, r.t_end, r.category,
                       r.label, r.rank, r.track,
                       [(k, repr(v)) for k, v in r.meta.items()])).encode())
    return h.hexdigest()[:16]


def _counters(tracer) -> dict:
    """``mpi.sends`` by protocol and every ``resilience.*`` counter,
    labels folded into the name."""
    out = {}
    for (name, labels), v in sorted(tracer.metrics._counters.items()):
        if name == "mpi.sends" or name.startswith("resilience."):
            key = ".".join([name.split(".", 1)[1]] + [lv for _, lv in labels])
            out[key] = out.get(key, 0) + int(v)
    return out


class _KeptTracer(Tracer):
    """The tracer of the run in progress, reachable after a run that
    raised (``Cluster.run`` returns nothing then)."""

    last = None

    def __init__(self, sim=None):
        super().__init__(sim)
        _KeptTracer.last = self


def _run(cluster, fn, **kw):
    """``(result-or-exception, tracer, elapsed)`` of one run."""
    with mock.patch.object(cluster_mod, "Tracer", _KeptTracer):
        try:
            out = cluster.run(fn, **kw)
        except Exception as exc:
            out = exc
    tracer = _KeptTracer.last
    return out, tracer, tracer._sim.now


def _observe(kind: str, config: str, plan: str) -> tuple:
    """``(spans, events, elapsed, span hash, outcome, counters)``, plus a
    CRC of the injector's final RNG state for ``RNG_SCENARIOS``."""
    if kind == "pt2pt":
        cluster, fn, cfg = Cluster("longhorn", 2, 1), _pt2pt, PT2PT_CONFIGS[config]
    else:
        cluster, fn, cfg = Cluster("longhorn", 3, 2), _coll, COLL_CONFIGS[config]
    out, t, elapsed = _run(cluster, fn, config=cfg, faults=PLANS[plan])
    if isinstance(out, Exception):
        outcome = f"{type(out).__name__}: {out}"
    else:
        outcome = zlib.crc32(repr(out.values).encode())
    observed = (len(t.records), t.event_count, elapsed, _span_hash(t), outcome,
                _counters(t))
    if (kind, config, plan) in RNG_SCENARIOS:
        rng = t._sim.faults._rng.bit_generator.state
        observed += (zlib.crc32(repr(rng).encode()),)
    return observed


PINS = {
    ('pt2pt', 'mpc-opt', 'clean'):
        (88, 178, 0.0004104465576679119, '7b8b555ad2442e42', 3998601823,
         {'sends.rndv': 4}),
    ('pt2pt', 'mpc-opt', 'drop'):
        (126, 216, 1.2505554002985753, '0d1967728609b38a', 3998601823,
         {'sends.rndv': 4,
          'data_timeout': 5,
          'recovered': 3,
          'retransmit': 5}),
    ('pt2pt', 'mpc-opt', 'drop+corrupt'):
        (143, 248, 0.7507649118670049, '3310fb12bca7c640', 3998601823,
         {'sends.rndv': 4,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 2,
          'data_timeout': 3,
          'recovered': 2,
          'retransmit': 5}),
    ('pt2pt', 'mpc-opt', 'silent'):
        (167, 283, 0.0009539606705785623, '447f6b24e41f55cc', 3998601823,
         {'sends.rndv': 4,
          'crc_mismatch': 5,
          'recovered': 3,
          'retransmit': 5}),
    # Re-captured by ISSUE 25's bugfix: a retried receiver_prepare now
    # records `recovered`, as unpack_wire always did (+2).  Span count,
    # span digest and the recovered counter only.
    ('pt2pt', 'mpc-opt', 'oom+pool'):
        (100, 182, 0.0004594584389402387, 'ce2eed18f76e065e', 3998601823,
         {'sends.rndv': 4, 'recovered': 2, 'retry': 2}),
    ('pt2pt', 'mpc-opt', 'compress-fail'):
        (64, 88, 0.0003251943087966016, 'ed091483260a8988', 3998601823,
         {'sends.rndv': 4, 'fallback': 3}),
    ('pt2pt', 'mpc-pipe4', 'clean'):
        (148, 282, 0.000584148786077785, '82db117e0154b723', 3998601823,
         {'sends.rndv_pipelined': 4}),
    ('pt2pt', 'mpc-pipe4', 'drop'):
        (185, 379, 1.0004892803439343, 'df1bd37f99e42740', 3998601823,
         {'sends.rndv_pipelined': 4,
          'data_timeout': 4,
          'recovered': 3,
          'retransmit': 4}),
    ('pt2pt', 'mpc-pipe4', 'drop+corrupt'):
        (243, 484, 1.5008302328826588, 'b9ed9d97b4ad62d0', 3998601823,
         {'sends.rndv_pipelined': 4,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 2,
          'data_timeout': 6,
          'recovered': 4,
          'retransmit': 8}),
    ('pt2pt', 'mpc-pipe4', 'silent'):
        (385, 728, 0.0035484071297930708, 'ec4c0ea6ca8f82c5', 3998601823,
         {'sends.rndv_pipelined': 4,
          'breaker_transitions.closed': 3,
          'breaker_transitions.open': 3,
          'breaker_trips.trip': 3,
          'crc_mismatch': 14,
          'recovered': 3,
          'retransmit': 14}),
    # Re-captured by ISSUE 25's bugfix: a retried receiver_prepare now
    # records `recovered`, as unpack_wire always did (+2).  Span count,
    # span digest and the recovered counter only.
    ('pt2pt', 'mpc-pipe4', 'oom+pool'):
        (160, 286, 0.0006331606673501117, '2d997188dcfb4988', 3998601823,
         {'sends.rndv_pipelined': 4, 'recovered': 2, 'retry': 2}),
    # Re-captured by ISSUE 16 (span digest; span count 45 -> 41): a
    # failed streamed attempt and its uncompressed fallback share the
    # message's one sender_prepare span, the empty duplicate is gone.
    ('pt2pt', 'mpc-pipe4', 'compress-fail'):
        (41, 42, 0.00027073471999999996, '90e23bc2c046e0bb', 3998601823,
         {'sends.rndv': 4,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'fallback': 4}),
    # Re-captured by ISSUE 16, span digest only (and the 45 -> 41 spans
    # of compress-fail, as above): a streamed ZFP send follows the one
    # step order — host set-up before its buffer acquire — and sizes
    # that buffer at ZFP's exact fixed-rate size instead of MPC's
    # worst-case bound (the pool span's nbytes/capacity meta).
    ('pt2pt', 'zfp8-pipe4', 'clean'):
        (122, 256, 0.00025515727839269404, '9f9def7a7c7b1a95', 1613338976,
         {'sends.rndv_pipelined': 4}),
    ('pt2pt', 'zfp8-pipe4', 'drop'):
        (162, 351, 1.000373054156276, '185cedd37bf56d07', 1613338976,
         {'sends.rndv_pipelined': 4,
          'data_timeout': 4,
          'recovered': 3,
          'retransmit': 4}),
    ('pt2pt', 'zfp8-pipe4', 'drop+corrupt'):
        (219, 451, 1.5007884087692784, '296fd0ca345a652f', 1613338976,
         {'sends.rndv_pipelined': 4,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 2,
          'data_timeout': 6,
          'recovered': 4,
          'retransmit': 8}),
    ('pt2pt', 'zfp8-pipe4', 'silent'):
        (351, 670, 0.003060496325610386, 'e4e465806aa2cdbd', 1613338976,
         {'sends.rndv_pipelined': 4,
          'breaker_transitions.closed': 3,
          'breaker_transitions.open': 3,
          'breaker_trips.trip': 3,
          'crc_mismatch': 14,
          'recovered': 3,
          'retransmit': 14}),
    ('pt2pt', 'zfp8-pipe4', 'oom+pool'):
        (122, 256, 0.00025515727839269404, '9f9def7a7c7b1a95', 1613338976,
         {'sends.rndv_pipelined': 4}),
    ('pt2pt', 'zfp8-pipe4', 'compress-fail'):
        (41, 42, 0.00027073471999999996, 'deb8e766444942e1', 3998601823,
         {'sends.rndv': 4,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'fallback': 4}),
    ('pt2pt', 'off', 'clean'):
        (32, 42, 0.00027073471999999996, 'e6c309029dcab6f7', 3998601823,
         {'sends.rndv': 4}),
    ('pt2pt', 'off', 'drop'):
        (70, 80, 1.2504413783680455, 'b67570ffe55ff47f', 3998601823,
         {'sends.rndv': 4,
          'data_timeout': 5,
          'recovered': 3,
          'retransmit': 5}),
    ('pt2pt', 'off', 'drop+corrupt'):
        (71, 80, 0.7505993586931213, '1d9e5a99a3aa21a8', 3998601823,
         {'sends.rndv': 4,
          'crc_mismatch': 2,
          'data_timeout': 3,
          'recovered': 2,
          'retransmit': 5}),
    ('pt2pt', 'off', 'silent'):
        (32, 42, 0.00027073471999999996, 'e6c309029dcab6f7', 3998601823,
         {'sends.rndv': 4}),
    ('pt2pt', 'off', 'oom+pool'):
        (32, 42, 0.00027073471999999996, 'e6c309029dcab6f7', 3998601823,
         {'sends.rndv': 4}),
    ('pt2pt', 'off', 'compress-fail'):
        (32, 42, 0.00027073471999999996, 'e6c309029dcab6f7', 3998601823,
         {'sends.rndv': 4}),
    ('pt2pt', 'sz', 'clean'):
        (60, 86, 0.00020391088640000005, '8ae8c019f8131d85', 631387700,
         {'sends.rndv': 4}),
    ('pt2pt', 'sz', 'drop'):
        (98, 124, 1.2503483316288453, '5dfce103e6b438ae', 631387700,
         {'sends.rndv': 4,
          'data_timeout': 5,
          'recovered': 3,
          'retransmit': 5}),
    ('pt2pt', 'sz', 'drop+corrupt'):
        (109, 134, 0.7504865556147209, 'ba9070729d4ec574', 631387700,
         {'sends.rndv': 4,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 2,
          'data_timeout': 3,
          'recovered': 2,
          'retransmit': 5}),
    ('pt2pt', 'sz', 'silent'):
        (73, 96, 0.0002640004132576253, '5da315941f6e87d4', 631387700,
         {'sends.rndv': 4,
          'crc_mismatch': 1,
          'recovered': 1,
          'retransmit': 1}),
    ('pt2pt', 'sz', 'oom+pool'):
        (60, 86, 0.00020391088640000005, '8ae8c019f8131d85', 631387700,
         {'sends.rndv': 4}),
    ('pt2pt', 'sz', 'compress-fail'):
        (54, 68, 0.0002461350976, 'd71c8b004cebf2a6', 3027142954,
         {'sends.rndv': 4, 'fallback': 2}),
    ('coll', 'mpc-opt', 'clean'):
        (1804, 2605, 0.0012554793747835654, 'ecc6b993942544c4', 3400292418,
         {'sends.rndv_wire': 95}),
    ('coll', 'mpc-opt', 'drop'):
        (2254, 3131, 6.252765426386749, 'e8291204129441ed', 3400292418,
         {'sends.rndv_wire': 95,
          'breaker_transitions.closed': 5,
          'breaker_transitions.open': 5,
          'breaker_trips.trip': 5,
          'data_timeout': 58,
          'recovered': 34,
          'retransmit': 58}),
    ('coll', 'mpc-opt', 'drop+corrupt'):
        (2337, 3171, 4.00240915398975, '07b8c0fb552f0a0e', 3400292418,
         {'sends.rndv_wire': 95,
          'breaker_transitions.closed': 3,
          'breaker_transitions.open': 3,
          'breaker_trips.trip': 3,
          'data_timeout': 38,
          'recovered': 45,
          'retransmit': 65,
          'wire_crc_mismatch': 27}),
    # Re-captured by ISSUE 22's bugfix: the row recorded the abort
    # ("IntegrityError: rank 3: wire image origin_seq=1 failed its
    # post-decode CRC" after 444 spans).  unpack_wire now decodes the
    # verified bytes it holds again, so the run finishes with the clean
    # result and no retransmission.
    ('coll', 'mpc-opt', 'silent'):
        (2248, 3182, 0.0022794638214500944, '1fe3d84036e7b6f1', 3400292418,
         {'sends.rndv_wire': 95, 'crc_mismatch': 43, 'recovered': 26}),
    ('coll', 'off', 'clean'):
        (778, 911, 0.0005004954400000002, '14c2db81dd243040', 3400292418,
         {'sends.rndv': 95}),
    ('coll', 'off', 'drop'):
        (1221, 1430, 5.501525120162211, '836f7d36a9ac531d', 3400292418,
         {'sends.rndv': 95,
          'data_timeout': 58,
          'recovered': 37,
          'retransmit': 58}),
    ('coll', 'off', 'drop+corrupt'):
        (1301, 1475, 4.5013782915182015, 'b0cbefe42184cc25', 3400292418,
         {'sends.rndv': 95,
          'crc_mismatch': 27,
          'data_timeout': 38,
          'recovered': 41,
          'retransmit': 65}),
    ('coll', 'off', 'silent'):
        (778, 911, 0.0005004954400000002, '14c2db81dd243040', 3400292418,
         {'sends.rndv': 95}),
    # Re-captured by ISSUE 16, span digest only: the ring allreduce's
    # plain sends are streamed ZFP sends (see pt2pt/zfp8-pipe4); the
    # silent plan fails before its first one and is unchanged.
    ('coll', 'zfp8-pipe4', 'clean'):
        (2314, 4387, 0.0007724246795981735, '1df3ff261905ff83', 1309900956,
         {'sends.rndv_pipelined': 60, 'sends.rndv_wire': 35}),
    ('coll', 'zfp8-pipe4', 'drop'):
        (3199, 6224, 6.001537506855925, '7c9981e247a787e3', 1309900956,
         {'sends.rndv': 1,
          'sends.rndv_pipelined': 59,
          'sends.rndv_wire': 35,
          'breaker_transitions.closed': 5,
          'breaker_transitions.half_open': 1,
          'breaker_transitions.open': 6,
          'breaker_trips.retrip': 1,
          'breaker_trips.trip': 5,
          'breaker_veto': 1,
          'data_timeout': 92,
          'recovered': 68,
          'retransmit': 92}),
    ('coll', 'zfp8-pipe4', 'drop+corrupt'):
        (3481, 6705, 5.252473070195865, '0af584c59308c2f9', 1309900956,
         {'sends.rndv_pipelined': 60,
          'sends.rndv_wire': 35,
          'breaker_transitions.closed': 11,
          'breaker_transitions.open': 11,
          'breaker_trips.trip': 11,
          'crc_mismatch': 28,
          'data_timeout': 70,
          'recovered': 62,
          'retransmit': 104,
          'wire_crc_mismatch': 6}),
    # Re-captured by ISSUE 22's bugfix: the row recorded the unpack_wire
    # abort ("rank 2: wire image origin_seq=1 failed its post-decode
    # CRC" after 368 spans).  The allgather now recovers; the run gets
    # as far as the ring allreduce, whose streamed sends decode four
    # parts at 0.3 each (a whole message comes out clean one time in
    # four) and one of them spends its NACK budget, as pt2pt would.
    ('coll', 'zfp8-pipe4', 'silent'):
        (1251, 2034, 0.006335143573450465, 'fe977910218ef45c',
         'IntegrityError: rank 3: message seq 40 from rank 2 failed '
         '(crc_mismatch) after 8 retransmission(s)',
         {'sends.rndv_pipelined': 12,
          'sends.rndv_wire': 30,
          'breaker_transitions.closed': 2,
          'breaker_transitions.open': 3,
          'breaker_trips.trip': 3,
          'breaker_veto': 1,
          'crc_mismatch': 34,
          'recovered': 15,
          'retransmit': 21}),
    # ISSUE 22, captured on its parent (FlakyCompressor behind the
    # registry hook), with the injector's final RNG state as a 7th field.
    ('pt2pt', 'mpc-opt', 'mixed'):
        (154, 237, 0.0009290672308174861, 'dd729c7ae48a52e3', 3998601823,
         {'sends.rndv': 4,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 5,
          'fallback': 1,
          'recovered': 3,
          'retransmit': 5},
         223277422),
    ('pt2pt', 'mpc-pipe4', 'mixed'):
        (179, 317, 0.000988743594901313, '310c4a410b397046', 3998601823,
         {'sends.rndv': 2,
          'sends.rndv_pipelined': 2,
          'breaker_transitions.closed': 2,
          'breaker_transitions.open': 2,
          'breaker_trips.trip': 2,
          'crc_mismatch': 5,
          'fallback': 2,
          'recovered': 2,
          'retransmit': 5},
         2368955343),
    ('pt2pt', 'zfp8-pipe4', 'mixed'):
        (116, 208, 0.00043000562406328403, 'dabc3beca21f0efa', 4252611019,
         {'sends.rndv': 2,
          'sends.rndv_pipelined': 2,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'crc_mismatch': 2,
          'fallback': 2,
          'recovered': 1,
          'retransmit': 2},
         2629832951),
    ('pt2pt', 'off', 'mixed'):
        (32, 42, 0.00027073471999999996, 'e6c309029dcab6f7', 3998601823,
         {'sends.rndv': 4},
         1865705432),
    ('pt2pt', 'sz', 'mixed'):
        (83, 97, 0.00034669787167232685, '607d8912e1c24849', 277160888,
         {'sends.rndv': 4,
          'crc_mismatch': 2,
          'fallback': 1,
          'recovered': 2,
          'retransmit': 2},
         1692495230),
    ('coll', 'mpc-opt', 'compress-fail'):
        (1155, 1400, 0.0009044788786933273, 'f150367c0c7782d0', 3400292418,
         {'sends.rndv_wire': 95, 'fallback': 25},
         3504245553),
    # Re-captured by the bugfix, like coll/mpc-opt/silent: the parent
    # recorded "IntegrityError: rank 4: wire image origin_seq=1 failed
    # its post-decode CRC" (555 spans, RNG state 1299050851).
    ('coll', 'mpc-opt', 'mixed'):
        (1885, 2533, 0.0018843211285362522, '72efd4dc8d91f6c5', 3400292418,
         {'sends.rndv_wire': 95,
          'crc_mismatch': 22,
          'fallback': 5,
          'recovered': 23,
          'retransmit': 9,
          'wire_crc_mismatch': 9},
         1803811126),
    ('coll', 'off', 'compress-fail'):
        (778, 911, 0.0005004954400000002, '14c2db81dd243040', 3400292418,
         {'sends.rndv': 95},
         1075060812),
    ('coll', 'off', 'mixed'):
        (876, 965, 0.0006488489092859104, '7b0f09e887b47878', 3400292418,
         {'sends.rndv': 95,
          'crc_mismatch': 11,
          'recovered': 10,
          'retransmit': 11},
         3291092658),
    ('coll', 'zfp8-pipe4', 'compress-fail'):
        (984, 1118, 0.0005442126115799089, '71bf4cdedfe61dee', 2081813251,
         {'sends.rndv': 59,
          'sends.rndv_pipelined': 1,
          'sends.rndv_wire': 35,
          'breaker_transitions.open': 6,
          'breaker_trips.trip': 6,
          'breaker_veto': 40,
          'fallback': 23},
         3215567613),
    # Re-captured by the bugfix: the parent recorded "IntegrityError:
    # rank 1: wire image origin_seq=1 failed its post-decode CRC" (403
    # spans, RNG state 1067147131).
    ('coll', 'zfp8-pipe4', 'mixed'):
        (2777, 4762, 0.0053684825440802235, 'cd46ce2f76775075', 558355011,
         {'sends.rndv': 22,
          'sends.rndv_pipelined': 38,
          'sends.rndv_wire': 35,
          'breaker_transitions.closed': 9,
          'breaker_transitions.open': 9,
          'breaker_trips.trip': 9,
          'breaker_veto': 2,
          'crc_mismatch': 58,
          'fallback': 21,
          'recovered': 38,
          'retransmit': 57,
          'wire_crc_mismatch': 6},
         3734286279),
    ('coll', 'rehop', 'silent'):
        (2785, 3859, 0.0035246120270231844, '13b19bc50364e451', 3400292418,
         {'sends.rndv': 95,
          'breaker_transitions.closed': 7,
          'breaker_transitions.open': 7,
          'breaker_trips.trip': 7,
          'crc_mismatch': 56,
          'recovered': 33,
          'retransmit': 56},
         2965308053),
    ('coll', 'rehop', 'compress-fail'):
        (1251, 1412, 0.0008869333141609899, '2b98f7c32d3a76a3', 3400292418,
         {'sends.rndv': 95,
          'breaker_transitions.closed': 2,
          'breaker_transitions.open': 6,
          'breaker_trips.trip': 6,
          'breaker_veto': 42,
          'fallback': 35},
         72046568),
    ('coll', 'rehop', 'mixed'):
        (2523, 3426, 0.0034452672190552844, '891c2795e980d9a0', 3400292418,
         {'sends.rndv': 95,
          'breaker_transitions.closed': 3,
          'breaker_transitions.open': 3,
          'breaker_trips.trip': 3,
          'breaker_veto': 1,
          'crc_mismatch': 43,
          'decode_error': 1,
          'fallback': 10,
          'recovered': 30,
          'retransmit': 44},
         3836175584),
    # Re-captured by ISSUE 25's bugfix: a retried receiver_prepare now
    # records `recovered`, as unpack_wire always did (recovered 23 -> 34).  Span count,
    # span digest and the recovered counter only.
    ('coll', 'mpc-opt', 'alloc'):
        (1608, 1859, 0.003956887469143109, 'e6e73a040cb90ea5', 3400292418,
         {'sends.rndv_wire': 95,
          'fallback': 23,
          'recovered': 34,
          'retry': 65},
         989524747),
    ('coll', 'off', 'alloc'):
        (778, 911, 0.0005004954400000002, '14c2db81dd243040', 3400292418,
         {'sends.rndv': 95},
         2858089555),
    # Re-captured by ISSUE 25's bugfix: a retried receiver_prepare now
    # records `recovered`, as unpack_wire always did (recovered 8 -> 23).  Span count,
    # span digest and the recovered counter only.
    ('coll', 'zfp8-pipe4', 'alloc'):
        (2000, 3214, 0.0015151212950262197, 'd624c1aaa8728122', 348920860,
         {'sends.rndv': 22,
          'sends.rndv_pipelined': 38,
          'sends.rndv_wire': 35,
          'breaker_transitions.open': 1,
          'breaker_trips.trip': 1,
          'breaker_veto': 3,
          'fallback': 21,
          'recovered': 23,
          'retry': 37},
         1310950883),
    # Re-captured by ISSUE 25's bugfix: a retried receiver_prepare now
    # records `recovered`, as unpack_wire always did (+14).  Span count,
    # span digest and the recovered counter only.
    ('coll', 'rehop', 'alloc'):
        (1482, 1820, 0.0021893111847976856, '0ca444baa7e978ca', 3400292418,
         {'sends.rndv': 95,
          'breaker_transitions.closed': 1,
          'breaker_transitions.open': 4,
          'breaker_trips.trip': 4,
          'breaker_veto': 23,
          'fallback': 40,
          'recovered': 14,
          'retry': 30},
         3036953522),
}


@pytest.mark.parametrize("kind,config,plan", SCENARIOS,
                         ids=["-".join(s) for s in SCENARIOS])
def test_scenario_matches_parent(kind, config, plan):
    assert _observe(kind, config, plan) == PINS[kind, config, plan]


# -- a failed receive returns its staging buffers -----------------------------

def _pools_home(runtime) -> bool:
    pools = []
    for rank in range(2):
        eng = runtime.engine_of(rank)
        pools += [eng.doff_pool] + eng.data_pool._classes
    return all(p.free_count == p.total for p in pools)


@pytest.mark.parametrize("config", [MPC_PIPE, MPC_PIPE.with_(pipeline=False)],
                         ids=["pipelined", "unpipelined"])
@pytest.mark.parametrize("seed", range(3))
def test_failed_receive_returns_its_buffers(config, seed):
    """Every partition is corrupted and nothing may be retransmitted:
    the receive fails with the decoder's own error — and with every
    pooled buffer of both ranks back home, pipelined or not."""
    payload = make_payload("omb", 1 * MiB)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
            return None
        try:
            yield from comm.recv(0)
        except CompressionError:
            yield comm.sim.timeout(1e-3)  # let the other parts drain
            return "failed"

    out, tracer, _ = _run(Cluster("longhorn", 2, 1), rank_fn, config=config,
                          faults=FaultPlan(seed=seed, corrupt_rate=1.0),
                          resilience=ResilienceConfig(max_retries=0),
                          asan=False)
    assert out.values[1] == "failed"
    assert _pools_home(out.runtime)
    assert tracer.metrics.counter_total("resilience.decode_error") == 1


# -- the posted tag never reaches the handshake --------------------------------

@pytest.mark.parametrize("config", [MPC, MPC_PIPE], ids=["rndv", "pipelined"])
def test_any_tag_receive_has_the_same_trace(config):
    payload = make_payload("wave", 1 * MiB, seed=1)

    def rank_fn(comm, tag):
        if comm.rank == 0:
            yield from comm.send(payload, 1, tag=5)
            return None
        return _crc((yield from comm.recv(0, tag=tag)))

    runs = [_run(Cluster("longhorn", 2, 1), rank_fn, config=config,
                 args=(tag,)) for tag in (5, ANY_TAG)]
    (a, ta, ea), (b, tb, eb) = runs
    assert a.values == b.values and ea == eb
    assert _span_hash(ta) == _span_hash(tb)
    assert ta.event_count == tb.event_count


if __name__ == "__main__":
    for s in SCENARIOS:
        print(f"    {s!r}: {_observe(*s)!r},")
