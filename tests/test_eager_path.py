"""The process-free eager message path (``repro.mpi.eager``).

Every simulated time, span count and trace fingerprint pinned here was
captured from the generator-based protocol this path replaced, *before*
the replacement, so the tests hold the new path to the old timeline bit
for bit — including under contention, where same-instant event order
decides who wins a shared link.  Event counts are the new path's own:
they are what the change is for.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.core.header import CompressionHeader
from repro.errors import IntegrityError
from repro.mpi import ANY_SOURCE
from repro.mpi.cluster import Cluster
from repro.mpi.comm import EAGER_THRESHOLD
from repro.mpi.wire import WireImage
from repro.omb.payload import make_payload
from repro.sim import Process, Timeout
from repro.sim.resources import _Request
from repro.sim.trace import Trace, trace_scope
from repro.utils.integrity import payload_crc32
from repro.utils.units import KiB

from tests import pins


def block(rank, n=1024):
    """A 4 KiB (by default) eager payload naming its sender."""
    return np.full(n, rank, dtype=np.float32)


def shared_bus_cluster():
    """2 nodes x 4 GPUs behind one PCIe bus and one HCA per node: every
    message contends."""
    return Cluster("frontera-liquid", nodes=2, gpus_per_node=4)


# -- contended eager traffic ---------------------------------------------------

def barrier_then_allgather(comm):
    yield from comm.barrier()
    got = yield from comm.allgather(block(comm.rank))
    assert all((g == i).all() for i, g in enumerate(got))
    return comm.now


#: per-rank completion times of the generator protocol (parent commit)
CONTENDED_TIMES = [
    0.00011289713235294123, 0.00011617870098039222,
    0.00012052536764705889, 0.00012052536764705889,
    0.00011289713235294123, 0.00011617870098039222,
    0.00012052536764705889, 0.00012052536764705889,
]


@pytest.mark.parametrize("trace", [False, True])
def test_contended_times_match_generator_protocol(trace):
    res = shared_bus_cluster().run(barrier_then_allgather, trace=trace)
    assert res.values == CONTENDED_TIMES
    assert res.elapsed == 0.00012052536764705889


def test_contended_trace_is_span_for_span_the_generator_protocols():
    got = FAMILY.cells["contended"].observe()
    assert len(got.tracer.records) == 96
    # ids, parents (the collective span each rank had open at isend
    # time), link tracks and metadata of all 96 spans; and the event
    # count (882 before the eager state machine, 514 before a step's
    # send and receive started from one event): where a reordering
    # would show first
    assert pins.digests(got, FAMILY.layers) == FAMILY.load()["contended"]


def test_events_per_message_budget():
    def allgather(comm):
        yield from comm.allgather(block(comm.rank))

    res = Cluster("fat-tree", nodes=4, gpus_per_node=4).run(allgather)
    sends = res.tracer.metrics.counter_total("mpi.sends")
    assert sends == 240
    assert res.tracer.event_count / sends <= 4.5  # 10.6, then 5.3 before


# -- no process, timeout or request object on the uncontended path ------------------

def test_uncontended_eager_message_constructs_no_process_timeout_or_request(
        monkeypatch):
    made = {Process: 0, Timeout: 0, _Request: 0}
    for cls in made:
        init = cls.__init__

        def counting(self, *a, _cls=cls, _init=init, **kw):
            made[_cls] += 1
            _init(self, *a, **kw)

        monkeypatch.setattr(cls, "__init__", counting)

    def pingpong(comm):
        for i in range(20):
            if comm.rank == 0:
                yield from comm.send(block(0), 1, tag=i)
                yield from comm.recv(1, tag=i)
            else:
                yield from comm.recv(0, tag=i)
                yield from comm.send(block(1), 0, tag=i)

    Cluster("longhorn", nodes=2, gpus_per_node=1).run(pingpong, trace=False)
    # the two rank processes are all there is: 40 messages made nothing
    assert made == {Process: 2, Timeout: 0, _Request: 0}


# -- self-send, wildcard match, envelope before post: plain and wire payloads ---------

def wire_of(arr):
    return WireImage(header=CompressionHeader.uncompressed(arr.nbytes),
                     payload=arr, wire_nbytes=arr.nbytes)


def small_cases(comm, use_wire):
    x = block(comm.rank, 256)
    if use_wire:
        def isend(data, dest, tag):
            return comm.isend(wire_of(data), dest, tag)

        recv, unwrap = comm.recv, (lambda w: w.payload)
    else:
        isend, recv, unwrap = comm.isend, comm.recv, (lambda a: a)
    log = []
    # self-send
    sreq = isend(x, comm.rank, 3)
    got = yield from recv(comm.rank, tag=3)
    yield from sreq.wait()
    assert (unwrap(got) == comm.rank).all()
    log.append(comm.now)
    yield from comm.barrier()
    # ANY_SOURCE: three staggered senders, one wildcard receiver
    if comm.rank == 0:
        with trace_scope(comm.sim, "app", "drain", rank=0):
            srcs = []
            for _ in range(comm.size - 1):
                got = yield from recv(ANY_SOURCE, tag=9)
                srcs.append(int(unwrap(got)[0]))
        log.append(srcs)
    else:
        yield comm.sim.timeout(comm.rank * 0.7e-6)
        yield from isend(x, 0, 9).wait()
    log.append(comm.now)
    yield from comm.barrier()
    # the envelope arrives long before the receive is posted
    if comm.rank == 1:
        yield from isend(x, 2, 11).wait()
    elif comm.rank == 2:
        yield comm.sim.timeout(50e-6)
        got = yield from recv(1, tag=11)
        assert (unwrap(got) == 1).all()
    log.append(comm.now)
    return log


#: the contended allgather and the small cases, pinned in the run layers
#: of ``tests/pins.py`` from runs that reproduced the span fingerprints
#: ``a5355723f71786f8`` and ``b174ad4a1b6011d6`` this file kept before
FAMILY = pins.Family("eager", {
    "contended": pins.Scenario(barrier_then_allgather,
                               CompressionConfig.disabled(),
                               ("frontera-liquid", 2, 4)),
    **{f"small-cases/{kind}": pins.Scenario(
        functools.partial(small_cases, use_wire=use_wire),
        CompressionConfig.disabled(), ("longhorn", 2, 2))
       for kind, use_wire in (("plain", False), ("wire", True))}})


@pytest.mark.parametrize("use_wire", [False, True])
def test_self_send_wildcard_and_early_envelope(use_wire):
    cell = f"small-cases/{'wire' if use_wire else 'plain'}"
    got = FAMILY.cells[cell].observe()
    res = got.out
    # times of the generator protocol, identical for both payload kinds
    assert res.values == [
        [1e-06, [1, 3, 2], 1.828448e-05, 2.8295746666666666e-05],
        [1e-06, 1.2724906666666667e-05, 3.2382786666666666e-05],
        [1e-06, 1.828448e-05, 7.929574666666667e-05],
        [1e-06, 1.519744e-05, 2.8295746666666666e-05],
    ]
    m = res.tracer.metrics
    assert m.counter("mpi.sends", protocol="self") == 4
    # the two barriers' 16 tokens are plain eager sends either way
    assert m.counter("mpi.sends", protocol="eager") == (16 if use_wire else 20)
    assert m.counter("mpi.sends", protocol="wire_eager") == (4 if use_wire else 0)
    assert m.counter_total("matching.unexpected") == 7
    by_id = Trace.of(res.tracer).by_id
    wild = [r for r in res.tracer.records if r.label == "wildcard_match"]
    assert [(r.rank, r.meta["src"], r.t_start) for r in wild] == [
        (0, 1, 1.30156e-05), (0, 3, 1.519744e-05), (0, 2, 1.828448e-05)]
    # the first envelope beat its post (recorded under the receiver's
    # open span); the other two matched a waiting post from the
    # sender's side, where no span was open
    assert [by_id[r.parent_id].label if r.parent_id else None
            for r in wild] == ["drain", None, None]
    stored = FAMILY.load()
    assert pins.digests(got, FAMILY.layers) == stored[cell]
    # the payload kind changes a counter label and nothing in the trace
    assert stored["small-cases/plain"]["spans"] == stored["small-cases/wire"]["spans"]


def rendezvous_case(comm, use_wire, tamper):
    """Above the eager threshold, same calls: what arrives is what was
    sent — a packed image relayed as it is, an array decoded."""
    x = make_payload("wave", 256 * KiB, seed=1)
    if comm.rank == 0:
        sent = (yield from comm.pack_wire(x)) if use_wire else x
        if tamper:
            sent = dataclasses.replace(sent, wire_crc=sent.wire_crc ^ 1)
        yield from comm.isend(sent, 1, 4).wait()
        return None
    try:
        got = yield from comm.irecv(0, 4).wait()
    except IntegrityError as exc:
        return str(exc)
    if use_wire:
        assert isinstance(got, WireImage) and got.compressed
        assert got.origin_seq == 1 and got.wire_nbytes >= EAGER_THRESHOLD
        assert got.wire_crc == payload_crc32(got.payload)
        got = yield from comm.unpack_wire(got)
    assert isinstance(got, np.ndarray) and (got == x).all()
    return "ok"


@pytest.mark.parametrize("use_wire", [False, True])
def test_rendezvous_receive_completes_with_what_was_sent(use_wire):
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rendezvous_case, args=(use_wire, False),
        config=CompressionConfig.mpc_opt())
    assert res.values == [None, "ok"]
    m = res.tracer.metrics
    assert m.counter("mpi.sends", protocol="rndv_wire") == int(use_wire)
    assert m.counter("mpi.sends", protocol="rndv") == int(not use_wire)
    done, = [r for r in res.tracer.records if r.label == "receiver_complete"]
    assert ("origin_seq" in done.meta) == use_wire


def test_relayed_image_is_verified_by_its_wire_crc():
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rendezvous_case, args=(True, True), config=CompressionConfig.mpc_opt())
    assert res.values[1] == ("rank 1: wire image seq 2 from rank 0 failed "
                             "(wire_crc_mismatch) after 0 retransmission(s)")


def test_network_span_nests_under_the_span_open_at_isend_time():
    def fn(comm):
        if comm.rank == 0:
            with trace_scope(comm.sim, "app", "phase", rank=0):
                req = comm.isend(block(0), 1)
                yield from req.wait()
            # issued under a span that has closed by wire time: no parent
            with trace_scope(comm.sim, "app", "brief", rank=0):
                req = comm.isend(block(0), 1)
            yield from req.wait()
        else:
            yield from comm.recv(0)
            yield from comm.recv(0)

    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(fn)
    by_id = Trace.of(res.tracer).by_id
    net = [r for r in res.tracer.records if r.category == "network"]
    assert [by_id[r.parent_id].label if r.parent_id else None
            for r in net] == ["phase", None]
