"""Tests for FPC, the null codec, the registry and the perf models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    FpcCompressor,
    NullCompressor,
    available,
    feature_table,
    get_compressor,
    kernel_cost_model_for,
    register,
)
from repro.compression.perfmodel import MPC_V100, NULL_MODEL, ZFP_V100
from repro.compression.registry import TABLE1_ROWS
from repro.errors import CompressionError, ConfigError
from repro.utils.units import Gbps

from tests.conftest import smooth_f32


def bits_equal(a, b):
    u = np.uint32 if a.dtype == np.float32 else np.uint64
    return a.shape == b.shape and np.array_equal(a.view(u), b.view(u))


# -- FPC --------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 1001])
def test_fpc_roundtrip(dtype, n, rng):
    x = np.cumsum(rng.standard_normal(n)).astype(dtype)
    c = FpcCompressor()
    assert bits_equal(c.decompress(c.compress(x)), x)


def test_fpc_specials_roundtrip():
    x = np.array([np.nan, np.inf, -0.0, 1e-40], dtype=np.float32)
    c = FpcCompressor()
    assert bits_equal(c.decompress(c.compress(x)), x)


def test_fpc_constant_compresses_well():
    x = np.full(10_000, 2.5, dtype=np.float64)
    assert FpcCompressor().compress(x).ratio > 10


def test_fpc_smooth_beats_random(rng):
    smooth = smooth_f32(20_000)
    random = rng.standard_normal(20_000).astype(np.float32)
    c = FpcCompressor()
    assert c.compress(smooth).ratio > c.compress(random).ratio


def test_fpc_size_mismatch_rejected(rng):
    c = FpcCompressor()
    comp = c.compress(rng.standard_normal(100).astype(np.float64))
    comp.payload = comp.payload[:-3]
    with pytest.raises(CompressionError):
        c.decompress(comp)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=32),
                min_size=0, max_size=150))
def test_fpc_property_lossless(data):
    x = np.array(data, dtype=np.float32)
    c = FpcCompressor()
    assert bits_equal(c.decompress(c.compress(x)), x)


# -- Null ---------------------------------------------------------------------

def test_null_identity(rng):
    x = rng.standard_normal(100).astype(np.float32)
    c = NullCompressor()
    comp = c.compress(x)
    assert comp.ratio == pytest.approx(1.0)
    assert bits_equal(c.decompress(comp), x)


def test_null_expected_size():
    assert NullCompressor().expected_compressed_bytes(10, 4) == 40


# -- registry -----------------------------------------------------------------

def test_registry_contents():
    assert {"mpc", "zfp", "fpc", "null"} <= set(available())


def test_get_compressor_with_params():
    c = get_compressor("zfp", rate=8)
    assert c.rate == 8
    m = get_compressor("mpc", dimensionality=4)
    assert m.dimensionality == 4


def test_get_compressor_unknown():
    with pytest.raises(CompressionError, match="unknown compressor"):
        get_compressor("zstd")


def test_register_custom():
    class Custom(NullCompressor):
        name = "null"

    register("custom-null", Custom)
    assert isinstance(get_compressor("custom-null"), Custom)


def test_feature_table_matches_table1():
    rows = feature_table()
    assert len(rows) == len(TABLE1_ROWS) == 10
    names = [r[0] for r in rows]
    assert names[0] == "FPC"
    assert names[-2:] == ["Proposed MPC-OPT", "Proposed ZFP-OPT"]
    # Only the proposed schemes have efficient MPI support (last col
    # before 'implemented').
    mpi_col = [r[7] for r in rows]
    assert mpi_col[-2:] == ["yes", "yes"]
    assert mpi_col[4:8] == ["no", "no", "no", "no"]  # GFC/MPC/SZ/ZFP
    by_name = {r[0]: r for r in rows}
    assert [by_name[n][7] for n in ("Proposed MPC-OPT", "Proposed ZFP-OPT",
                                    "MPC", "ZFP")] == ["yes", "yes", "no", "no"]


# -- perf models ---------------------------------------------------------------

def test_model_lookup():
    assert kernel_cost_model_for("mpc") is MPC_V100
    assert kernel_cost_model_for("zfp") is ZFP_V100
    with pytest.raises(ConfigError):
        kernel_cost_model_for("nope")


def test_throughput_calibration_table3():
    """Full-device V100 effective throughput must be within 15% of the
    paper's Table III numbers."""
    nbytes = 64 << 20
    t = MPC_V100.compress_time(nbytes, 80, 80)
    eff = nbytes / t  # bytes/s
    assert eff == pytest.approx(Gbps(205.0), rel=0.20)
    t = ZFP_V100.compress_time(nbytes, 80, 80)
    assert nbytes / t == pytest.approx(Gbps(450.0), rel=0.15)
    t = ZFP_V100.decompress_time(nbytes, 80, 80)
    assert nbytes / t == pytest.approx(Gbps(730.0), rel=0.15)


def test_half_sms_roughly_full_speed():
    """Paper Sec IV: 'the compression/decompression runtime of using
    half of the available SMs is roughly the same as using full GPU'."""
    nbytes = 16 << 20
    t_full = MPC_V100.compress_time(nbytes, 80, 80)
    t_half = MPC_V100.compress_time(nbytes, 40, 80)
    assert t_half <= 1.35 * t_full


def test_mpc_sync_overhead_grows_with_blocks():
    """More thread blocks in one kernel = more busy-wait cost."""
    nbytes = 1 << 20
    t80 = MPC_V100.compress_time(nbytes, 80, 80)
    t10 = MPC_V100.compress_time(nbytes, 10, 80)
    sync80 = MPC_V100.sync_per_block * 80
    sync10 = MPC_V100.sync_per_block * 10
    assert sync80 > sync10
    assert t80 - sync80 < t10 - sync10  # pure-kernel part still faster at 80


def test_partitioned_aggregate_beats_single_kernel():
    """8 concurrent kernels of 10 blocks outperform one 80-block
    kernel — the justification for MPC-OPT's decomposition."""
    nbytes = 32 << 20
    single = MPC_V100.compress_time(nbytes, 80, 80)
    per_part = MPC_V100.compress_time(nbytes // 8, 10, 80)
    assert per_part < single / 2


def test_device_scaling():
    nbytes = 8 << 20
    t_v100 = ZFP_V100.compress_time(nbytes, 80, 80)
    t_rtx = ZFP_V100.compress_time(nbytes, 48, 48)
    assert t_rtx > t_v100  # fewer SMs = slower


def test_zero_block_kernel_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        MPC_V100.compress_time(1024, 0, 80)


def test_null_model_free():
    assert NULL_MODEL.compress_time(1 << 30, 1, 80) == 0.0
