"""Matching engine, requests and cluster runner internals."""

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.core.header import CompressionHeader
from repro.errors import MpiError
from repro.mpi import Cluster
from repro.mpi.collectives import COLL_TAG_BASE
from repro.mpi.comm import TAG_STRIDE
from repro.mpi.matching import ANY, P2P_TAGS, MatchingEngine
from repro.mpi.message import CONTROL_PACKET_BYTES, Cts, Data, Eager, Rts
from repro.mpi.request import Request, waitall
from repro.mpi.wire import WireImage


def pkt(src=0, dst=1, tag=0, seq=1, header=None):
    """An RTS envelope describing a raw 4 KiB message (or ``header``'s)."""
    header = header or CompressionHeader.uncompressed(4096)
    return Rts.describing(WireImage(header, None, header.wire_bytes),
                          src, dst, tag, seq)


# -- packets ---------------------------------------------------------------

def test_control_bytes_include_header():
    h = CompressionHeader.for_message("mpc", np.float32, 100, 1, (50, 50))
    assert pkt(header=h).control_bytes() == CONTROL_PACKET_BYTES + h.nbytes
    raw = CompressionHeader.uncompressed(4096)
    assert pkt().control_bytes() == CONTROL_PACKET_BYTES + raw.nbytes


def test_envelopes_print_as_packets():
    """The text the matching report shows for every packet kind."""
    assert repr(pkt(src=0, dst=1, tag=7, seq=3)) == "<Packet rts 0->1 tag=7 seq=3>"
    assert repr(Eager(2, 0, 9, 4, None)) == "<Packet eager 2->0 tag=9 seq=4>"
    assert repr(Cts(1, 0, 7, 3)) == "<Packet cts 1->0 tag=7 seq=3>"


def _described(comm, relay):
    """Rank 0's image of a 1 MiB message — packed for relaying, or the
    one a plain send packs — and the RTS describing it."""
    if comm.rank != 0:
        return None
    x = np.linspace(0.0, 1.0, 256 * 1024, dtype=np.float32)
    if relay:
        image = yield from comm.pack_wire(x)
    else:
        plan, image = yield from comm._pack(comm._rt, x, 1, 7)
        yield from comm._rt.engine_of(comm.grank).sender_release(plan)
    return image, Rts.describing(image, 0, 1, 5, 7)


def test_rts_describes_the_message():
    mpc = CompressionConfig.mpc_opt()
    cases = [  # config, relay -> relayed, streamed, compressed, n_parts
        (mpc, True, (True, False, True, 1)),
        (mpc, False, (False, False, True, 1)),
        (mpc.with_(pipeline=True), False, (False, True, True, 2)),
        (CompressionConfig.disabled(), False, (False, False, False, 1)),
    ]
    for config, relay, described in cases:
        res = Cluster("longhorn", 2, 1).run(_described, args=(relay,),
                                            config=config)
        image, rts = res.values[0]
        assert (rts.relayed, rts.streamed, rts.compressed,
                rts.n_parts) == described
        # mpc-opt packs 1 MiB as two partitions: two DATA parts only
        # when they are streamed
        assert image.header.n_partitions == (2 if rts.compressed else 1)
        assert (rts.src, rts.dst, rts.tag, rts.seq) == (0, 1, 5, 7)
        assert rts.control_bytes() == CONTROL_PACKET_BYTES + image.header.nbytes
        # what the receiver hands on is the sender's image, field for field
        assert rts.image(image.payload) == image


# -- matching ---------------------------------------------------------------

def post(m, source, tag):
    """Post a receive on ``m``: the list gets the matching envelope at
    match time."""
    got = []
    m.post(source, tag, got.append)
    return got


def test_posted_recv_matches_later_arrival(sim):
    m = MatchingEngine(sim, 1)
    got = post(m, 0, 7)
    assert not got
    m.deliver_envelope(pkt(tag=7))
    assert got and got[0].tag == 7


def test_unexpected_then_post(sim):
    m = MatchingEngine(sim, 1)
    m.deliver_envelope(pkt(tag=7))
    assert m.unexpected_count == 1
    got = post(m, 0, 7)
    assert got
    assert m.unexpected_count == 0


def test_fifo_among_equal_matches(sim):
    m = MatchingEngine(sim, 1)
    p1, p2 = pkt(seq=1), pkt(seq=2)
    m.deliver_envelope(p1)
    m.deliver_envelope(p2)
    assert post(m, 0, 0)[0].seq == 1
    assert post(m, 0, 0)[0].seq == 2


def test_wildcards(sim):
    m = MatchingEngine(sim, 1)
    m.deliver_envelope(pkt(src=3, tag=9))
    assert post(m, ANY, ANY)


@pytest.mark.parametrize("post_first", [False, True])
def test_a_wildcard_tag_stays_in_its_communicators_point_to_point_tags(
        sim, post_first):
    """``~base`` is the wildcard tag of the block starting at ``base``:
    the world's is ``ANY``.  Both sides of the match agree."""
    base = 2 * TAG_STRIDE
    outside = (P2P_TAGS, COLL_TAG_BASE + 4,               # agreement, collective
               base - 1, base + P2P_TAGS, TAG_STRIDE + 4)  # other blocks
    for tag in outside + (base + P2P_TAGS - 1,):
        m = MatchingEngine(sim, 1)
        if post_first:
            got = post(m, ANY, ~base)
            m.deliver_envelope(pkt(tag=tag))
        else:
            m.deliver_envelope(pkt(tag=tag))
            got = post(m, ANY, ~base)
        assert bool(got) == (tag not in outside), tag
    m = MatchingEngine(sim, 1)
    m.deliver_envelope(pkt(tag=P2P_TAGS))
    m.deliver_envelope(pkt(tag=P2P_TAGS - 1, seq=2))
    assert post(m, ANY, ANY)[0].seq == 2


def test_no_match_on_wrong_tag(sim):
    m = MatchingEngine(sim, 1)
    m.deliver_envelope(pkt(tag=1))
    assert not post(m, 0, 2)
    assert m.pending_recvs == 1


def test_no_match_on_wrong_source(sim):
    m = MatchingEngine(sim, 1)
    m.deliver_envelope(pkt(src=2))
    assert not post(m, 3, ANY)


def test_cts_routing_by_seq(sim):
    m = MatchingEngine(sim, 0)
    ev = m.expect_cts(42)
    m.deliver_cts(Cts(1, 0, 0, 42))
    assert ev.triggered


def test_early_data_buffered(sim):
    """DATA arriving before the waiter registers must not be lost."""
    m = MatchingEngine(sim, 0)
    m.deliver_data(Data(1, 9, 0, 0, None))
    ev = m.expect_data(9)
    assert ev.triggered and ev.value.seq == 9


def test_withdrawn_data_waiters_drop_their_late_delivery(sim):
    """A retired message's timed-out waiters are withdrawn; DATA that
    still lands for one is dropped, not parked as an early packet."""
    m = MatchingEngine(sim, 0)
    m.expect_data(9, part=0)
    m.expect_data(9, part=1)
    keep = m.expect_data(10)
    m.withdraw_data(9)
    m.deliver_data(Data(1, 9, 1, 0, None))
    m.deliver_data(Data(1, 10, 0, 0, None))
    assert keep.triggered and m.idle


def test_duplicate_waiter_rejected(sim):
    m = MatchingEngine(sim, 0)
    m.expect_cts(1)
    with pytest.raises(MpiError):
        m.expect_cts(1)


# -- requests -----------------------------------------------------------------

def test_request_complete_then_wait(sim):
    req = Request(sim)
    req.complete("hello")

    def proc(sim, req):
        val = yield from req.wait()
        return val

    assert sim.run_process(proc(sim, req)) == "hello"


def test_request_wait_then_complete(sim):
    req = Request(sim)

    def waiter(sim, req):
        val = yield from req.wait()
        return val

    def completer(sim, req):
        yield sim.timeout(1.0)
        req.complete(123)

    p = sim.process(waiter(sim, req))
    sim.process(completer(sim, req))
    sim.run()
    assert p.value == 123


def test_request_double_complete(sim):
    req = Request(sim)
    req.complete(1)
    with pytest.raises(MpiError):
        req.complete(2)


def test_request_failure_propagates(sim):
    req = Request(sim)

    def waiter(sim, req):
        yield from req.wait()

    p = sim.process(waiter(sim, req))
    req.fail(RuntimeError("transport error"))
    with pytest.raises(RuntimeError, match="transport error"):
        sim.run()


def test_request_test_raises_failure(sim):
    req = Request(sim)
    req.fail(ValueError("x"))
    with pytest.raises(ValueError):
        req.test()


def test_waitall_order(sim):
    reqs = [Request(sim) for _ in range(3)]

    def proc(sim, reqs):
        vals = yield from waitall(reqs)
        return vals

    p = sim.process(proc(sim, reqs))
    # complete out of order
    reqs[2].complete("c")
    reqs[0].complete("a")
    reqs[1].complete("b")
    sim.run()
    assert p.value == ["a", "b", "c"]


def test_multiple_waiters_one_request(sim):
    req = Request(sim)
    results = []

    def waiter(sim, req):
        val = yield from req.wait()
        results.append(val)

    sim.process(waiter(sim, req))
    sim.process(waiter(sim, req))
    req.complete("shared")
    sim.run()
    assert results == ["shared", "shared"]


# -- cluster runner -------------------------------------------------------------

def test_cluster_returns_rank_values(two_node_cluster):
    def rank_fn(comm):
        yield comm.sim.timeout(0)
        return comm.rank * 10

    res = two_node_cluster.run(rank_fn)
    assert res.values == [0, 10]


def test_cluster_nprocs_capped(two_node_cluster):
    def rank_fn(comm):
        yield comm.sim.timeout(0)

    with pytest.raises(MpiError):
        two_node_cluster.run(rank_fn, nprocs=3)


def test_cluster_rank_exception_surfaces(two_node_cluster):
    def rank_fn(comm):
        yield comm.sim.timeout(0)
        if comm.rank == 1:
            raise ValueError("rank 1 crashed")

    with pytest.raises(ValueError, match="rank 1 crashed"):
        two_node_cluster.run(rank_fn)


def test_cluster_runs_independent(two_node_cluster):
    def rank_fn(comm):
        yield comm.sim.timeout(1e-3)
        return comm.now

    r1 = two_node_cluster.run(rank_fn)
    r2 = two_node_cluster.run(rank_fn)
    assert r1.elapsed == r2.elapsed  # fresh simulator each run


def test_cluster_from_string_preset():
    c = Cluster("ri2", nodes=2, gpus_per_node=1)
    assert c.preset.name == "ri2"
    assert c.n_gpus == 2


def test_quick_cluster_top_level():
    from repro import quick_cluster

    c = quick_cluster("lassen", nodes=2, gpus_per_node=4)
    assert c.n_gpus == 8


def test_cluster_determinism(two_node_cluster):
    data = np.cumsum(np.ones(200_000, dtype=np.float32))

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1)
        else:
            yield from comm.recv(0)
        return comm.now

    from repro.core import CompressionConfig

    e1 = two_node_cluster.run(rank_fn, config=CompressionConfig.mpc_opt()).elapsed
    e2 = two_node_cluster.run(rank_fn, config=CompressionConfig.mpc_opt()).elapsed
    assert e1 == e2


def test_request_kind_is_rendered_from_parts(sim):
    req = Request(sim, "isend->", 3)
    assert req.kind == "isend->3"
    assert repr(req) == "<Request isend->3 pending>"
    req.complete()
    assert repr(req) == "<Request isend->3 done>"
    with pytest.raises(MpiError, match=r"request 'isend->3' completed twice"):
        req.complete()
    assert Request(sim, "irecv<-", ANY).kind == "irecv<--1"
    assert Request(sim).kind == ""


def test_post_calls_back_at_match_time(sim):
    m = MatchingEngine(sim, rank=1)
    got = []
    m.post(0, 7, got.append)
    assert m.pending_recvs == 1 and not got
    m.deliver_envelope(pkt(src=0, tag=7, seq=4))
    assert [p.seq for p in got] == [4] and m.pending_recvs == 0
    # an envelope already waiting matches inside post()
    m.deliver_envelope(pkt(src=2, tag=9, seq=5))
    m.post(ANY, 9, got.append)
    assert [p.seq for p in got] == [4, 5] and m.idle
