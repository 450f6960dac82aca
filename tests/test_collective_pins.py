"""Every collective, pinned cell by cell.

A cell is one collective call on one cluster shape under one config,
pinned in the run layers of ``tests/pins.py`` from runs that reproduced
the constants captured before ``mpi/collectives.py`` became schedule
tables run by one exchange driver.  A change of mechanism alone (fewer
scheduler events) moves ``mechanism`` and nothing else.
"""

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

from tests import pins

SHAPES = ((2, 1), (3, 1), (2, 2), (5, 1), (4, 2), (3, 3))

CONFIGS = {
    "disabled": CompressionConfig.disabled(),
    "mpc-opt": CompressionConfig.mpc_opt(),
    "mpc-opt-rehop": CompressionConfig.mpc_opt().with_(keep_compressed=False),
    "zfp8": CompressionConfig.zfp_opt(8),
    "naive-mpc": CompressionConfig.naive_mpc(),
}


def _wave(comm, nbytes=256 * KiB, salt=0):
    return make_payload("wave", nbytes, seed=comm.rank + salt)


def _bcast(root, nbytes=256 * KiB):
    def call(comm):
        data = _wave(comm, nbytes) if comm.rank == root else None
        return (yield from comm.bcast(data, root=root))
    return call


def _gather_last(comm):
    return (yield from comm.gather(_wave(comm), root=comm.size - 1))


def _scatter_1(comm):
    chunks = None
    if comm.rank == 1:
        chunks = [make_payload("wave", 256 * KiB, seed=d)
                  for d in range(comm.size)]
    return (yield from comm.scatter(chunks, root=1))


def _allgather(comm):
    return (yield from comm.allgather(_wave(comm)))


def _allgather_int32(comm):
    data = np.arange(64 * KiB, dtype=np.int32) * (comm.rank + 1)
    return (yield from comm.allgather(data))


def _reduce_1(comm):
    return (yield from comm.reduce(_wave(comm), root=1))


def _allreduce(algorithm, op=None):
    # 1 MiB: the ring's 1/size chunks sit above the 128 KiB compression
    # threshold on up to 8 ranks and below it on 9.
    def call(comm):
        return (yield from comm.allreduce(_wave(comm, 1 * MiB), op=op,
                                          algorithm=algorithm))
    return call


def _alltoall(comm):
    chunks = [_wave(comm, salt=100 * d) for d in range(comm.size)]
    return (yield from comm.alltoall(chunks))


def _barrier(comm):
    yield from comm.barrier()


#: call name -> (rank function, needs a power-of-two communicator)
CALLS = {
    "bcast-root0": (_bcast(0), False),
    "bcast-root1": (_bcast(1), False),
    "bcast-eager": (_bcast(0, 4 * KiB), False),
    "gather-last": (_gather_last, False),
    "scatter-root1": (_scatter_1, False),
    "allgather": (_allgather, False),
    "allgather-int32": (_allgather_int32, False),
    "reduce-root1": (_reduce_1, False),
    "allreduce-ring": (_allreduce("ring"), False),
    "allreduce-ring-max": (_allreduce("ring", np.maximum), False),
    "allreduce-rd": (_allreduce("recursive_doubling"), True),
    "allreduce-rd-max": (_allreduce("recursive_doubling", np.maximum), True),
    "allreduce-reduce-bcast": (_allreduce("reduce_bcast"), False),
    "allreduce-default": (_allreduce(None), False),
    "alltoall": (_alltoall, False),
    "barrier": (_barrier, False),
}


def _calls_for(size: int) -> list:
    return [name for name, (_, pow2) in CALLS.items()
            if not pow2 or size & (size - 1) == 0]


FAMILY = pins.Family("collectives", {
    f"{n}x{p}/{config}/{call}": pins.Scenario(CALLS[call][0], CONFIGS[config],
                                              ("longhorn", n, p))
    for n, p in SHAPES for config in CONFIGS for call in _calls_for(n * p)})


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_collectives_reproduce_the_parent(shape, config):
    assert FAMILY.moved(f"{shape[0]}x{shape[1]}/{config}/") == {}


def test_pin_count():
    stored = FAMILY.load()
    assert list(stored) == list(FAMILY.cells) and len(stored) >= 400
    assert all(tuple(cell) == FAMILY.layers for cell in stored.values())
