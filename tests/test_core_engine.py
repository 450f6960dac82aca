"""Unit tests for the compression engine pipelines."""

import numpy as np
import pytest

from repro.core import CompressionConfig, CompressionEngine
from repro.gpu.device import Device
from repro.gpu.spec import V100
from repro.sim import Simulator, Tracer
from repro.utils.units import KiB, MiB, us

from tests.conftest import smooth_f32


def make_engine(config):
    sim = Simulator()
    Tracer(sim)
    dev = Device(sim, V100, 0)
    return sim, dev, CompressionEngine(sim, dev, config)


def run_send(engine, data):
    return engine.sim.run_process(engine.sender_prepare(data))


def full_roundtrip(config, data):
    """sender_prepare -> receiver_prepare -> receiver_complete."""
    sim, dev, eng_s = make_engine(config)
    eng_r = CompressionEngine(sim, dev, config)

    def proc():
        plan = yield from eng_s.sender_prepare(data)
        res = yield from eng_r.receiver_prepare(plan.header)
        out, _ = yield from eng_r.receiver_complete(plan.header, plan.payload, res)
        yield from eng_s.sender_release(plan)
        return plan, out

    plan, out = sim.run_process(proc())
    return sim, plan, out


# -- compressibility gate -------------------------------------------------------

def test_below_threshold_not_compressed():
    cfg = CompressionConfig.mpc_opt(threshold=1 * MiB)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(1000)  # 4 KB
    plan = run_send(eng, data)
    assert not plan.compressed
    assert plan.wire_nbytes == data.nbytes


def test_above_threshold_compressed():
    cfg = CompressionConfig.mpc_opt(threshold=64 * KiB)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(100_000)
    plan = run_send(eng, data)
    assert plan.compressed
    assert plan.wire_nbytes < data.nbytes


def test_disabled_never_compresses():
    cfg = CompressionConfig.disabled()
    sim, dev, eng = make_engine(cfg)
    plan = run_send(eng, smooth_f32(1_000_000))
    assert not plan.compressed


def test_unsupported_dtype_passthrough():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    sim, dev, eng = make_engine(cfg)
    data = np.arange(100_000, dtype=np.int64)
    plan = run_send(eng, data)
    assert not plan.compressed


def test_incompressible_falls_back_to_raw(rng):
    """Random data expands under MPC; the engine must ship it raw."""
    cfg = CompressionConfig.mpc_opt(threshold=64 * KiB)
    sim, dev, eng = make_engine(cfg)
    data = rng.integers(0, 1 << 32, 100_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
    plan = run_send(eng, data)
    assert not plan.compressed
    assert plan.wire_nbytes == data.nbytes


# -- MPC roundtrips -------------------------------------------------------------

@pytest.mark.parametrize("partitions", [1, 2, 4, 8])
def test_mpc_roundtrip_partitions(partitions):
    cfg = CompressionConfig.mpc_opt(threshold=0, partitions=partitions)
    data = smooth_f32(200_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.n_partitions == partitions
    assert np.array_equal(out.view(np.uint32), data.view(np.uint32))


def test_mpc_auto_partitions_follow_schedule():
    cfg = CompressionConfig.mpc_opt(threshold=0, partitions=0)
    data = smooth_f32((2 * MiB) // 4)  # 2 MiB -> 4 partitions
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.n_partitions == 4


def test_mpc_dimensionality_in_header():
    cfg = CompressionConfig.mpc_opt(threshold=0).with_(mpc_dimensionality=3)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.param == 3
    assert np.array_equal(out, data)


def test_naive_mpc_roundtrip():
    cfg = CompressionConfig.naive_mpc(threshold=0)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert np.array_equal(out, data)


# -- ZFP roundtrips --------------------------------------------------------------

@pytest.mark.parametrize("rate", [4, 8, 16])
def test_zfp_roundtrip(rate):
    cfg = CompressionConfig.zfp_opt(rate=rate, threshold=0)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.compressed
    assert plan.wire_nbytes == pytest.approx(data.nbytes * rate / 32, rel=0.01)
    from repro.compression import ZfpCompressor

    assert np.abs(out - data).max() <= ZfpCompressor(rate).max_abs_error_bound(data)


def test_zfp_float64_roundtrip():
    cfg = CompressionConfig.zfp_opt(rate=16, threshold=0)
    data = np.sin(np.linspace(0, 10, 50_000))
    sim, plan, out = full_roundtrip(cfg, data)
    assert out.dtype == np.float64
    assert np.abs(out - data).max() < 1e-2


# -- cost accounting ---------------------------------------------------------------

def test_naive_mpc_pays_cudamalloc():
    data = smooth_f32(100_000)
    _, _, eng_naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    plan = run_send(eng_naive, data)
    t_naive = eng_naive.sim.now
    malloc_time = eng_naive.sim.tracer.breakdown().get("malloc", 0.0)
    assert malloc_time > us(150)  # comp buffer + d_off


def test_opt_mpc_avoids_cudamalloc():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.breakdown().get("malloc", 0.0) == 0.0


def test_opt_faster_than_naive():
    data = smooth_f32(500_000)
    _, _, naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    run_send(naive, data)
    t_naive = naive.sim.now
    _, _, opt = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(opt, data)
    assert opt.sim.now < t_naive / 2  # paper: up to 4x


def test_gdrcopy_vs_memcpy_for_size():
    data = smooth_f32(100_000)
    _, _, naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    run_send(naive, data)
    naive_copies = naive.sim.tracer.breakdown().get("data_copy", 0.0)
    _, _, opt = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(opt, data)
    opt_copies = opt.sim.tracer.breakdown().get("data_copy", 0.0)
    assert naive_copies >= us(19)
    assert opt_copies < us(5)


def test_naive_zfp_pays_device_props():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.naive_zfp(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.breakdown().get("get_max_grid_dims", 0.0) == pytest.approx(us(1840))


def test_opt_zfp_caches_attrs():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.zfp_opt(threshold=0))

    def proc():
        yield from eng.sender_prepare(data)
        yield from eng.sender_prepare(data)

    eng.sim.run_process(proc())
    # one ~1us query, second send free
    assert eng.sim.tracer.breakdown().get("get_max_grid_dims", 0.0) <= us(1.5)


def test_zfp_no_size_copy():
    """ZFP's predictable size means no D2H size retrieval at all."""
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.zfp_opt(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.breakdown().get("data_copy", 0.0) == 0.0


def test_partitioned_kernels_overlap():
    """With 4 partitions the busy window is much shorter than the
    summed kernel time."""
    data = smooth_f32(2_000_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=4))
    run_send(eng, data)
    tr = eng.sim.tracer
    assert tr.busy("compression_kernel") < 0.6 * tr.breakdown().get("compression_kernel", 0.0)


def test_partitioned_combine_charged():
    data = smooth_f32(2_000_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=4))
    run_send(eng, data)
    assert eng.sim.tracer.breakdown().get("combine", 0.0) > 0


def test_single_partition_no_combine():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=1))
    run_send(eng, data)
    assert eng.sim.tracer.breakdown().get("combine", 0.0) == 0


def test_sender_release_returns_buffers():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(100_000)

    def proc():
        plan = yield from eng.sender_prepare(data)
        yield from eng.sender_release(plan)
        return plan

    plan = sim.run_process(proc())
    assert plan.resources == []


def test_receiver_prepare_uncompressed_no_resources():
    cfg = CompressionConfig.disabled()
    sim, dev, eng = make_engine(cfg)
    from repro.core.header import CompressionHeader

    def proc():
        res = yield from eng.receiver_prepare(CompressionHeader.uncompressed(100))
        return res

    assert sim.run_process(proc()) == []


def test_payload_partition_size_mismatch_rejected():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    data = smooth_f32(100_000)
    sim, dev, eng = make_engine(cfg)
    plan = run_send(eng, data)

    def proc():
        res = yield from eng.receiver_prepare(plan.header)
        out = yield from eng.receiver_complete(
            plan.header, plan.payload[:-8], res
        )
        return out

    from repro.errors import CompressionError

    with pytest.raises(CompressionError):
        sim.run_process(proc())
