"""Point-to-point MPI semantics on the simulated cluster."""

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.errors import DeadlockError, MpiError
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.cluster import Cluster
from repro.mpi.collectives import COLL_TAG_BASE
from repro.mpi.matching import P2P_TAGS
from repro.mpi.request import waitall
from repro.network.presets import machine_preset
from repro.utils.units import MiB

from tests.conftest import smooth_f32


def test_basic_send_recv(two_node_cluster):
    data = smooth_f32(1000)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=5)
            return None
        got = yield from comm.recv(0, tag=5)
        return got

    res = two_node_cluster.run(rank_fn)
    assert np.array_equal(res.values[1], data)


def _one_way(comm, data):
    """Rank 0 sends ``data`` to rank 1, which returns what it received."""
    if comm.rank == 0:
        yield from comm.send(data, 1)
        return None
    return (yield from comm.recv(0))


def test_large_message_rendezvous(two_node_cluster):
    data = smooth_f32((1 * MiB) // 4)

    res = two_node_cluster.run(_one_way, args=(data,))
    assert np.array_equal(res.values[1], data)
    # rendezvous wire time dominated by EDR serialization
    assert res.elapsed > 1 * MiB / 12.5e9


def test_eager_below_threshold_faster_setup(two_node_cluster):
    small = smooth_f32(64)  # 256 B, eager

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(small, 1)
        else:
            yield from comm.recv(0)
        return comm.now

    res = two_node_cluster.run(rank_fn)
    assert res.elapsed < 50e-6  # no handshake round trips


def test_tag_matching_out_of_order(two_node_cluster):
    a, b = smooth_f32(100, seed=1), smooth_f32(100, seed=2)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(a, 1, tag=1)
            yield from comm.send(b, 1, tag=2)
            return None
        # Receive in reverse tag order.
        got_b = yield from comm.recv(0, tag=2)
        got_a = yield from comm.recv(0, tag=1)
        return got_a, got_b

    res = two_node_cluster.run(rank_fn)
    got_a, got_b = res.values[1]
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)


def test_any_source_any_tag(two_node_cluster):
    data = smooth_f32(50)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=77)
            return None
        return (yield from comm.recv(ANY_SOURCE, ANY_TAG))

    res = two_node_cluster.run(rank_fn)
    assert np.array_equal(res.values[1], data)


def test_isend_irecv_overlap(two_node_cluster):
    x, y = smooth_f32(80_000, seed=3), smooth_f32(80_000, seed=4)

    def rank_fn(comm):
        peer = 1 - comm.rank
        mine = x if comm.rank == 0 else y
        sreq = comm.isend(mine, peer, tag=9)
        rreq = comm.irecv(peer, tag=9)
        got = yield from rreq.wait()
        yield from sreq.wait()
        return got

    res = two_node_cluster.run(rank_fn)
    assert np.array_equal(res.values[0], y)
    assert np.array_equal(res.values[1], x)


def test_sendrecv(two_node_cluster):
    def rank_fn(comm):
        peer = 1 - comm.rank
        mine = np.full(100, float(comm.rank), dtype=np.float32)
        got = yield from comm.sendrecv(mine, peer, peer)
        return float(got[0])

    res = two_node_cluster.run(rank_fn)
    assert res.values == [1.0, 0.0]


def test_self_send(two_node_cluster):
    data = smooth_f32(100)

    def rank_fn(comm):
        if comm.rank == 0:
            req = comm.isend(data, 0, tag=3)
            got = yield from comm.recv(0, tag=3)
            yield from req.wait()
            return got
        yield from comm.barrier() if False else iter(())
        return None

    res = two_node_cluster.run(rank_fn)
    assert np.array_equal(res.values[0], data)


def test_multiple_outstanding_requests(two_node_cluster):
    msgs = [smooth_f32(10_000, seed=i) for i in range(6)]

    def rank_fn(comm):
        if comm.rank == 0:
            reqs = [comm.isend(m, 1, tag=i) for i, m in enumerate(msgs)]
            yield from waitall(reqs)
            return None
        reqs = [comm.irecv(0, tag=i) for i in range(6)]
        got = yield from waitall(reqs)
        return got

    res = two_node_cluster.run(rank_fn)
    for m, g in zip(msgs, res.values[1]):
        assert np.array_equal(m, g)


def test_bad_rank_rejected(two_node_cluster):
    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4, np.float32), 5)
        return None

    with pytest.raises(MpiError):
        two_node_cluster.run(rank_fn)


def test_unmatched_recv_deadlocks(two_node_cluster):
    def rank_fn(comm):
        if comm.rank == 1:
            yield from comm.recv(0, tag=1)
        else:
            yield from comm.barrier() if False else iter(())
        return None

    with pytest.raises(DeadlockError):
        two_node_cluster.run(rank_fn)


def test_request_test_and_done(two_node_cluster):
    def rank_fn(comm):
        if comm.rank == 0:
            req = comm.isend(smooth_f32(100), 1)
            before = req.test()
            yield from req.wait()
            return before, req.test()
        got = yield from comm.recv(0)
        return None

    res = two_node_cluster.run(rank_fn)
    before, after = res.values[0]
    assert after is True


# -- compression interplay -------------------------------------------------------

@pytest.mark.parametrize("cfg_name,check", [
    ("mpc", "exact"),
    ("zfp", "close"),
])
def test_compressed_pt2pt_correctness(two_node_cluster, cfg_name, check):
    data = smooth_f32((2 * MiB) // 4)
    cfg = (CompressionConfig.mpc_opt() if cfg_name == "mpc"
           else CompressionConfig.zfp_opt(16))

    res = two_node_cluster.run(_one_way, args=(data,), config=cfg)
    got = res.values[1]
    if check == "exact":
        assert np.array_equal(got, data)
    else:
        assert np.abs(got - data).max() < 1e-2


def test_compression_reduces_wire_bytes(two_node_cluster):
    data = np.full((4 * MiB) // 4, 1.5, dtype=np.float32)

    base = two_node_cluster.run(_one_way, args=(data,),
                                config=CompressionConfig.disabled())
    comp = two_node_cluster.run(_one_way, args=(data,),
                                config=CompressionConfig.mpc_opt())
    base_net = base.tracer.breakdown().get("network", 0.0)
    comp_net = comp.tracer.breakdown().get("network", 0.0)
    assert comp_net < base_net / 5  # constant data: huge ratio
    assert comp.elapsed < base.elapsed  # and it wins end to end


def test_naive_integration_slower_than_baseline(two_node_cluster):
    """Figure 5's core observation."""
    data = smooth_f32((1 * MiB) // 4)

    base = two_node_cluster.run(_one_way, args=(data,),
                                config=CompressionConfig.disabled())
    naive = two_node_cluster.run(_one_way, args=(data,),
                                 config=CompressionConfig.naive_zfp(16))
    assert naive.elapsed > 2 * base.elapsed


def test_compressed_header_piggyback_no_extra_messages(two_node_cluster):
    """Compression must not add control messages: the RTS carries the
    header (count network spans: eager=1, rndv = data only since
    control rides latency-only)."""
    data = smooth_f32((1 * MiB) // 4)

    base = two_node_cluster.run(_one_way, args=(data,),
                                config=CompressionConfig.disabled())
    comp = two_node_cluster.run(_one_way, args=(data,),
                                config=CompressionConfig.mpc_opt())
    n_base = len([r for r in base.tracer.records if r.category == "network"])
    n_comp = len([r for r in comp.tracer.records if r.category == "network"])
    assert n_comp == n_base


# -- a wildcard tag matches only its own communicator's point-to-point tags ---

def _wildcard_then_allgather(comm):
    """Rank 0 posts a fully wildcard receive before an allgather; the
    only message it may take is rank 1's tag-5 send after it."""
    req = comm.irecv(ANY_SOURCE, ANY_TAG) if comm.rank == 0 else None
    blocks = yield from comm.allgather(np.full(4, comm.rank, np.float32))
    if comm.rank == 1:
        yield from comm.send(np.full(4, 99, np.float32), 0, tag=5)
    msg = (yield from req.wait()) if req is not None else None
    return [int(b[0]) for b in blocks], None if msg is None else int(msg[0])


def test_wildcard_tag_leaves_a_collectives_messages_alone():
    res = Cluster("longhorn", 2, 2).run(_wildcard_then_allgather)
    assert res.values[0] == ([0, 1, 2, 3], 99)
    assert res.values[1:] == [([0, 1, 2, 3], None)] * 3


def _subset_wildcard_then_world_recv(comm):
    sub = comm.subset([0, 1])
    if comm.rank == 0:
        req = sub.irecv(1, ANY_TAG)
        world = yield from comm.recv(1, tag=9)
        mine = yield from req.wait()
        return int(world[0]), int(mine[0])
    yield from comm.send(np.full(4, 9, np.float32), 0, tag=9)
    yield from sub.send(np.full(4, 3, np.float32), 0, tag=3)
    return None


def test_wildcard_tag_leaves_another_communicators_messages_alone():
    res = Cluster("longhorn", 1, 2).run(_subset_wildcard_then_world_recv)
    assert res.values == [(9, 3), None]


# -- a user tag outside the point-to-point block is refused ---------------------

def _collective_tag_then_allgather(comm):
    """Rank 0 tries a user send on the allgather's own tag first; rank
    1 must still take rank 0's real block."""
    refused = None
    if comm.rank == 0:
        try:
            comm.isend(np.full(4, 99.0), 1, tag=COLL_TAG_BASE + 4)
            refused = False
        except MpiError:
            refused = True
    blocks = yield from comm.allgather(np.full(4, float(comm.rank)))
    return refused, [float(b[0]) for b in blocks]


def test_a_user_send_on_a_collective_tag_is_refused():
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        _collective_tag_then_allgather)
    assert res.values == [(True, [0.0, 1.0]), (None, [0.0, 1.0])]


def _tag_past_the_block_then_wildcard(comm):
    x = np.arange(4.0)
    if comm.rank == 0:
        try:
            yield from comm.send(x, 1, tag=P2P_TAGS)
        except MpiError:
            yield from comm.send(x, 1, tag=0)
        return None
    return list((yield from comm.recv(0)))


def test_a_send_tag_past_the_point_to_point_block_is_refused():
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        _tag_past_the_block_then_wildcard)
    assert res.values == [None, [0.0, 1.0, 2.0, 3.0]]


@pytest.mark.parametrize("tag", [-2, P2P_TAGS, COLL_TAG_BASE + 1],
                         ids=["negative", "past-the-block", "collective"])
def test_a_receive_tag_outside_the_block_is_refused(tag):
    def rank_fn(comm):
        with pytest.raises(MpiError):
            comm.irecv(0, tag)
        return comm.irecv(0, ANY_TAG) is not None
        yield

    res = Cluster("longhorn", nodes=1, gpus_per_node=1).run(rank_fn)
    assert res.values == [True]


def test_subset_excludes_self_raises():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                comm.subset((1,))
        yield comm.sim.timeout(0.0)
        return None

    cluster.run(rank_fn, config=CompressionConfig.disabled())


@pytest.mark.parametrize("group", [[0, 0, 1], [0, 5], [0, -1]],
                         ids=["repeated", "out-of-range", "negative"])
def test_subset_refuses_a_group_that_is_not_distinct_members(group):
    """MPI_Comm_create_group's rule: the group is distinct members of
    the communicator.  ``[0, 0, 1]`` made local ranks 0 and 1 both
    global rank 0 (a send to local rank 1 became an unreceived
    self-send); ``[0, 5]`` and ``[0, -1]`` failed only mid-run."""
    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                comm.subset(group)
        return None
        yield

    Cluster("longhorn", 2, 1).run(rank_fn)


def test_subset_of_a_derived_communicator_refuses_a_non_member():
    def rank_fn(comm):
        if comm.rank < 2:
            sub = comm.subset([0, 1])
            with pytest.raises(MpiError):
                sub.subset([comm.rank, 2])
        return None
        yield

    Cluster("longhorn", 1, 3).run(rank_fn)


def test_deadlock_report_names_the_unexpected_envelope_and_last_heard():
    """The hang report, byte for byte: posts, unexpected envelopes and
    when each rank last heard from its peers."""
    def rank_fn(comm):
        if comm.rank == 0:
            comm.irecv(ANY_SOURCE, tag=7)
            yield from comm.recv(1, tag=9)
        else:
            yield from comm.send(np.zeros(4, np.float32), 0, tag=5)
            yield from comm.recv(0, tag=2)

    with pytest.raises(DeadlockError) as err:
        Cluster("longhorn", 2, 1).run(rank_fn)
    assert str(err.value) == (
        "ranks never completed: ['rank0', 'rank1'] — unmatched send/recv "
        "or a collective not entered by every rank\n"
        "rank 0:\n"
        "  posted recv: source=ANY tag=7\n"
        "  posted recv: source=1 tag=9\n"
        "  unexpected envelope: <Packet eager 1->0 tag=5 seq=1>\n"
        "  last heard from rank 1: t=0.000004006\n"
        "rank 1:\n"
        "  posted recv: source=0 tag=2")
