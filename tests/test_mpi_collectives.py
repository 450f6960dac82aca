"""Collective algorithm correctness across communicator sizes."""

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.errors import MpiError
from repro.mpi import collectives
from repro.mpi.cluster import Cluster
from repro.mpi.comm import Communicator
from repro.network.presets import machine_preset


def run_collective(nprocs, rank_fn, config=None, machine="frontera-liquid", ppn=1):
    nodes = -(-nprocs // ppn)
    cluster = Cluster(machine_preset(machine), nodes=nodes, gpus_per_node=ppn)
    return cluster.run(rank_fn, nprocs=nprocs, config=config)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8])
def test_bcast_all_sizes(nprocs):
    payload = np.arange(500, dtype=np.float32)

    def rank_fn(comm):
        data = payload if comm.rank == 0 else None
        out = yield from comm.bcast(data, root=0)
        return np.asarray(out).sum()

    res = run_collective(nprocs, rank_fn)
    assert all(v == pytest.approx(payload.sum()) for v in res.values)


@pytest.mark.parametrize("root", [0, 1, 3])
def test_bcast_nonzero_root(root):
    def rank_fn(comm):
        data = np.full(100, 7.0, dtype=np.float32) if comm.rank == root else None
        out = yield from comm.bcast(data, root=root)
        return float(np.asarray(out)[0])

    res = run_collective(4, rank_fn)
    assert res.values == [7.0] * 4


def test_bcast_bad_root():
    def rank_fn(comm):
        yield from comm.bcast(None, root=9)

    with pytest.raises(MpiError):
        run_collective(2, rank_fn)


@pytest.mark.parametrize("name,root", [
    ("bcast", 9), ("gather", 7), ("scatter", 9), ("reduce", 5),
    ("reduce", -1), ("bcast", 4), ("gather", -4),
])
def test_rooted_collectives_reject_a_bad_root_on_every_rank(name, root):
    """``reduce(root=5)`` on 4 ranks used to deliver the sum at rank 1
    (the tree takes the root modulo the size), and ``gather(root=7)``
    to fail inside point-to-point as "destination rank 7 out of range"."""
    def rank_fn(comm):
        arg = np.ones(8, np.float32)
        if name == "scatter":
            arg = [arg] * comm.size
        try:
            yield from getattr(comm, name)(arg, root=root)
        except MpiError as exc:
            return str(exc)
        return None

    res = run_collective(4, rank_fn)
    assert res.values == [f"{name} root {root} out of range [0, 4)"] * 4


@pytest.mark.parametrize("nprocs", [1, 2, 4, 5, 8])
def test_allgather(nprocs):
    def rank_fn(comm):
        mine = np.full(64, float(comm.rank), dtype=np.float32)
        out = yield from comm.allgather(mine)
        return [float(np.asarray(c).reshape(-1)[0]) for c in out]

    res = run_collective(nprocs, rank_fn)
    for v in res.values:
        assert v == [float(i) for i in range(nprocs)]


@pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
def test_gather(nprocs):
    def rank_fn(comm):
        mine = np.array([comm.rank * 2.0], dtype=np.float32)
        out = yield from comm.gather(mine, root=0)
        if comm.rank == 0:
            return [float(np.asarray(c)[0]) for c in out]
        return out

    res = run_collective(nprocs, rank_fn)
    assert res.values[0] == [i * 2.0 for i in range(nprocs)]
    assert all(v is None for v in res.values[1:])


@pytest.mark.parametrize("nprocs", [2, 4, 5])
def test_scatter(nprocs):
    def rank_fn(comm):
        chunks = None
        if comm.rank == 0:
            chunks = [np.full(8, float(i), dtype=np.float32) for i in range(comm.size)]
        got = yield from comm.scatter(chunks, root=0)
        return float(np.asarray(got)[0])

    res = run_collective(nprocs, rank_fn)
    assert res.values == [float(i) for i in range(nprocs)]


def test_scatter_wrong_chunk_count():
    def rank_fn(comm):
        chunks = [np.zeros(2, np.float32)] if comm.rank == 0 else None
        yield from comm.scatter(chunks, root=0)

    with pytest.raises(MpiError):
        run_collective(3, rank_fn)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
def test_reduce_sum(nprocs):
    def rank_fn(comm):
        mine = np.full(32, float(comm.rank + 1), dtype=np.float32)
        out = yield from comm.reduce(mine, root=0)
        return None if out is None else float(np.asarray(out)[0])

    res = run_collective(nprocs, rank_fn)
    expected = sum(range(1, nprocs + 1))
    assert res.values[0] == pytest.approx(expected)
    assert all(v is None for v in res.values[1:])


@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
def test_allreduce_power_of_two(nprocs):
    def rank_fn(comm):
        mine = np.full(16, float(comm.rank), dtype=np.float32)
        out = yield from comm.allreduce(mine)
        return float(np.asarray(out)[0])

    res = run_collective(nprocs, rank_fn)
    expected = sum(range(nprocs))
    assert all(v == pytest.approx(expected) for v in res.values)


@pytest.mark.parametrize("nprocs", [3, 5, 6])
def test_allreduce_non_power_of_two(nprocs):
    def rank_fn(comm):
        mine = np.full(16, 2.0 ** comm.rank, dtype=np.float32)
        out = yield from comm.allreduce(mine)
        return float(np.asarray(out)[0])

    res = run_collective(nprocs, rank_fn)
    expected = sum(2.0 ** r for r in range(nprocs))
    assert all(v == pytest.approx(expected) for v in res.values)


def test_allreduce_custom_op():
    def rank_fn(comm):
        mine = np.array([float(comm.rank + 1)], dtype=np.float32)
        out = yield from comm.allreduce(mine, op=np.maximum)
        return float(np.asarray(out)[0])

    res = run_collective(4, rank_fn)
    assert all(v == 4.0 for v in res.values)


@pytest.mark.parametrize("nprocs", [2, 3, 4, 6])
def test_alltoall(nprocs):
    def rank_fn(comm):
        chunks = [
            np.full(16, comm.rank * 100.0 + dst, dtype=np.float32)
            for dst in range(comm.size)
        ]
        got = yield from comm.alltoall(chunks)
        return [float(np.asarray(c).reshape(-1)[0]) for c in got]

    res = run_collective(nprocs, rank_fn)
    for rank, v in enumerate(res.values):
        assert v == [src * 100.0 + rank for src in range(nprocs)]


def test_alltoall_wrong_count():
    def rank_fn(comm):
        yield from comm.alltoall([np.zeros(2, np.float32)])

    with pytest.raises(MpiError):
        run_collective(3, rank_fn)


@pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
def test_barrier_synchronizes(nprocs):
    def rank_fn(comm):
        # Stagger arrival, then everyone leaves the barrier together.
        yield comm.sim.timeout(comm.rank * 1e-4)
        yield from comm.barrier()
        return comm.now

    res = run_collective(nprocs, rank_fn)
    latest_arrival = (nprocs - 1) * 1e-4
    assert all(v >= latest_arrival for v in res.values)


def test_bcast_with_compression_correct():
    payload = np.cumsum(np.ones(1 << 19, dtype=np.float32) * 1e-4).astype(np.float32)

    def rank_fn(comm):
        data = payload if comm.rank == 0 else None
        out = yield from comm.bcast(data, root=0)
        return float(np.asarray(out).astype(np.float64).sum())

    res = run_collective(8, rank_fn, config=CompressionConfig.mpc_opt(), ppn=2)
    expected = float(payload.astype(np.float64).sum())
    assert all(v == pytest.approx(expected) for v in res.values)


def test_allgather_with_compression_faster_on_compressible():
    payload = np.full(1 << 19, 2.5, dtype=np.float32)  # 2 MiB constant

    def rank_fn(comm):
        out = yield from comm.allgather(payload)
        return comm.now

    base = run_collective(8, rank_fn, config=CompressionConfig.disabled(), ppn=2)
    comp = run_collective(8, rank_fn, config=CompressionConfig.mpc_opt(), ppn=2)
    assert comp.elapsed < base.elapsed


def test_collective_methods_are_the_module_functions():
    """No generator frame between ``comm.allgather(...)`` and the
    algorithm, and no blocking wire helpers nothing calls."""
    for name in ("bcast", "gather", "scatter", "allgather", "reduce",
                 "allreduce", "alltoall", "barrier"):
        assert getattr(Communicator, name) is getattr(collectives, name)
    assert not hasattr(Communicator, "send_wire")
    assert not hasattr(Communicator, "sendrecv_wire")
    # one nonblocking pair: the message says what a receive completes with
    for name in ("isend_wire", "irecv_wire", "recv_wire"):
        assert not hasattr(Communicator, name)
    assert collectives._Plane._fields == ("pack", "unpack", "reduce")
