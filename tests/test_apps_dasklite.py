"""Dask-lite: chunk geometry, placement, distributed transpose-sum."""

import numpy as np
import pytest

from repro.apps.dasklite import ChunkGrid, DistArray, transpose_sum_benchmark
from repro.apps.dasklite.ops import elementwise_add, transpose_sum
from repro.core import CompressionConfig
from repro.errors import ConfigError
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset


# -- geometry -----------------------------------------------------------------

def test_chunk_grid_counts():
    g = ChunkGrid(1000, 1000, 250)
    assert g.n_chunk_rows == g.n_chunk_cols == 4
    assert g.n_chunks == 16


def test_chunk_grid_ragged_edge():
    g = ChunkGrid(1000, 900, 256)
    assert g.n_chunk_rows == 4 and g.n_chunk_cols == 4
    assert g.chunk_shape(3, 3) == (1000 - 3 * 256, 900 - 3 * 256)


def test_chunk_grid_invalid():
    with pytest.raises(ConfigError):
        ChunkGrid(0, 10, 5)
    with pytest.raises(ConfigError):
        ChunkGrid(10, 10, 5).chunk_shape(9, 0)


def test_round_robin_placement_balanced():
    g = ChunkGrid(1024, 1024, 128)  # 64 chunks
    counts = [len(list(g.chunks_of(w, 4))) for w in range(4)]
    assert counts == [16, 16, 16, 16]


def test_every_chunk_owned_once():
    g = ChunkGrid(512, 512, 128)
    seen = set()
    for w in range(3):
        for ij in g.chunks_of(w, 3):
            assert ij not in seen
            seen.add(ij)
    assert len(seen) == g.n_chunks


# -- local arrays --------------------------------------------------------------------

def test_create_random_owns_only_assigned():
    g = ChunkGrid(512, 512, 128)
    arr = DistArray.create_random(g, worker=1, n_workers=4, seed=7)
    assert set(arr.owned()) == set(g.chunks_of(1, 4))
    for (i, j), c in arr.chunks.items():
        assert c.shape == g.chunk_shape(i, j)
        assert c.dtype == np.float32


def test_create_random_deterministic_across_workers():
    """Chunk content depends only on chunk index — two workers agree on
    what any chunk holds (needed for cross-checking the math)."""
    g = ChunkGrid(256, 256, 128)
    a0 = DistArray.create_random(g, 0, 1, seed=3)  # owns all
    a1 = DistArray.create_random(g, 1, 2, seed=3)
    for ij in a1.owned():
        assert np.array_equal(a0.chunks[ij], a1.chunks[ij])


# -- distributed op correctness ---------------------------------------------------------

def reference_transpose_sum(grid: ChunkGrid, seed: int) -> np.ndarray:
    full = DistArray.create_random(grid, 0, 1, seed=seed)
    n = grid.rows
    x = np.zeros((n, n), dtype=np.float32)
    for (i, j), c in full.chunks.items():
        x[i * grid.chunk:(i) * grid.chunk + c.shape[0],
          j * grid.chunk:(j) * grid.chunk + c.shape[1]] = c
    return x + x.T


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_transpose_sum_matches_reference(n_workers):
    grid = ChunkGrid(256, 256, 64)
    cluster = Cluster(machine_preset("ri2"), nodes=max(1, n_workers), gpus_per_node=1)

    def worker(comm):
        x = DistArray.create_random(grid, comm.rank, comm.size, seed=11)
        y = yield from transpose_sum(comm, x)
        return y.chunks

    res = cluster.run(worker, nprocs=n_workers)
    ref = reference_transpose_sum(grid, seed=11)
    for chunks in res.values:
        for (i, j), c in chunks.items():
            expect = ref[i * 64:i * 64 + c.shape[0], j * 64:j * 64 + c.shape[1]]
            assert np.allclose(c, expect, atol=1e-5), (i, j)


def test_transpose_sum_with_zfp_within_tolerance():
    grid = ChunkGrid(512, 512, 256)
    cluster = Cluster(machine_preset("ri2"), nodes=2, gpus_per_node=1)

    def worker(comm):
        x = DistArray.create_random(grid, comm.rank, comm.size, seed=2)
        y = yield from transpose_sum(comm, x)
        return y.checksum()

    base = cluster.run(worker, config=CompressionConfig.disabled())
    z16 = cluster.run(worker, config=CompressionConfig.zfp_opt(16))
    total_b = sum(base.values)
    total_z = sum(z16.values)
    assert total_z == pytest.approx(total_b, rel=1e-2)


def test_elementwise_add_no_comm():
    grid = ChunkGrid(128, 128, 64)
    cluster = Cluster(machine_preset("ri2"), nodes=2, gpus_per_node=1)

    def worker(comm):
        a = DistArray.create_random(grid, comm.rank, comm.size, seed=1)
        out = yield from elementwise_add(comm, a, a)
        return out.checksum(), a.checksum()

    res = cluster.run(worker)
    for total, single in res.values:
        assert total == pytest.approx(2 * single)
    # no network spans at all
    assert res.tracer.breakdown().get("network", 0.0) == 0.0


# -- benchmark harness -------------------------------------------------------------------

def test_benchmark_metrics():
    r = transpose_sum_benchmark(n_workers=2, dims=512, chunk=128)
    assert r.execution_time > 0
    assert r.aggregate_throughput > 0
    assert r.bytes_on_wire > 0
    assert r.n_workers == 2


def test_benchmark_compression_helps_fig14():
    base = transpose_sum_benchmark(n_workers=4, dims=2048, chunk=512)
    z8 = transpose_sum_benchmark(n_workers=4, dims=2048, chunk=512,
                                 config=CompressionConfig.zfp_opt(8))
    speedup = base.execution_time / z8.execution_time
    assert speedup > 1.0  # paper: avg 1.18x at rate 8
    assert z8.aggregate_throughput > base.aggregate_throughput


def test_benchmark_single_worker_no_wire():
    r = transpose_sum_benchmark(n_workers=1, dims=256, chunk=128)
    assert r.bytes_on_wire == 0
