"""SZ-style and GFC codecs (Table I completion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_compressor
from repro.compression.gfc import GfcCompressor
from repro.compression.sz import SzCompressor
from repro.errors import CompressionError


# -- SZ ----------------------------------------------------------------------

@pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-6])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 10_001])
def test_sz_error_bound_guaranteed(eb, n, rng):
    x = np.cumsum(rng.standard_normal(n)).astype(np.float32)
    codec = SzCompressor(eb)
    y = codec.decompress(codec.compress(x))
    assert y.shape == x.shape
    assert np.abs(x.astype(np.float64) - y.astype(np.float64)).max() <= eb * 1.0001


def test_sz_error_bound_float64(rng):
    x = np.cumsum(rng.standard_normal(5000))
    codec = SzCompressor(1e-8)
    y = codec.decompress(codec.compress(x))
    assert np.abs(x - y).max() <= 1e-8 * 1.0001


def test_sz_smooth_compresses_well():
    x = np.sin(np.linspace(0, 30, 100_000)).astype(np.float32)
    # eb = 1e-4 of the range: smooth data should beat ratio 4
    comp = SzCompressor(1e-4).compress(x)
    assert comp.ratio > 4


def test_sz_looser_bound_better_ratio(smooth_signal):
    r_loose = SzCompressor(1e-2).compress(smooth_signal).ratio
    r_tight = SzCompressor(1e-6).compress(smooth_signal).ratio
    assert r_loose > r_tight


def test_sz_rough_data_outliers(rng):
    """White noise much larger than eb forces outliers; the bound must
    still hold and ratio degrade gracefully."""
    x = (rng.standard_normal(4096) * 1e6).astype(np.float32)
    codec = SzCompressor(1e-6)
    comp = codec.compress(x)
    y = codec.decompress(comp)
    assert np.abs(x - y).max() <= 1e-6 * 1.0001 or np.array_equal(x, y)
    assert comp.ratio > 0.45  # bounded expansion


def test_sz_constant_block_exact():
    x = np.full(640, 2.5, dtype=np.float32)
    codec = SzCompressor(1e-3)
    y = codec.decompress(codec.compress(x))
    assert np.allclose(y, x, atol=1e-3)


def test_sz_zero_array():
    x = np.zeros(100, dtype=np.float32)
    codec = SzCompressor(1e-5)
    assert np.array_equal(codec.decompress(codec.compress(x)), x)


def test_sz_empty():
    codec = SzCompressor(1e-3)
    assert codec.decompress(codec.compress(np.empty(0, np.float32))).size == 0


def test_sz_validation():
    with pytest.raises(CompressionError):
        SzCompressor(0.0)
    with pytest.raises(CompressionError):
        SzCompressor(float("nan"))
    with pytest.raises(CompressionError):
        SzCompressor(1e-3).compress(np.array([np.inf], dtype=np.float32))


def test_sz_in_registry():
    codec = get_compressor("sz", error_bound=1e-2)
    assert codec.error_bound == 1e-2


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                            allow_infinity=False), min_size=1, max_size=300),
    eb=st.sampled_from([1e-1, 1e-3, 1e-5]),
)
def test_sz_property_bound(data, eb):
    x = np.array(data, dtype=np.float64)
    codec = SzCompressor(eb)
    y = codec.decompress(codec.compress(x))
    assert np.abs(x - y).max() <= eb * 1.0001


# -- GFC ---------------------------------------------------------------------

def bits_equal64(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, 2, 100, 1001])
def test_gfc_roundtrip(n, rng):
    x = np.cumsum(rng.standard_normal(n))
    codec = GfcCompressor()
    assert bits_equal64(codec.decompress(codec.compress(x)), x)


def test_gfc_specials():
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308])
    codec = GfcCompressor()
    assert bits_equal64(codec.decompress(codec.compress(x)), x)


def test_gfc_rejects_float32(rng):
    with pytest.raises(CompressionError):
        GfcCompressor().compress(rng.standard_normal(10).astype(np.float32))


def test_gfc_smooth_compresses(rng):
    x = np.cumsum(rng.standard_normal(50_000) * 1e-6)
    assert GfcCompressor().compress(x).ratio > 1.15
    # ... and beats its ratio on white noise
    noise = rng.standard_normal(50_000)
    assert GfcCompressor().compress(x).ratio > GfcCompressor().compress(noise).ratio


def test_gfc_constant_high_ratio():
    x = np.full(10_000, 3.25)
    assert GfcCompressor().compress(x).ratio > 10


def test_gfc_truncated_payload(rng):
    codec = GfcCompressor()
    comp = codec.compress(np.cumsum(rng.standard_normal(100)))
    comp.payload = comp.payload[:-1]
    with pytest.raises(CompressionError):
        codec.decompress(comp)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=0, max_size=150))
def test_gfc_property_lossless(data):
    x = np.array(data, dtype=np.float64)
    codec = GfcCompressor()
    assert bits_equal64(codec.decompress(codec.compress(x)), x)


def test_table1_now_fully_implemented_gpu_rows():
    from repro.compression.registry import TABLE1_ROWS

    gpu_rows = [r for r in TABLE1_ROWS if r["gpu"]]
    assert all(r["implemented"] for r in gpu_rows)


def test_perf_models_for_new_codecs():
    from repro.compression import kernel_cost_model_for

    assert kernel_cost_model_for("sz").name == "sz"
    assert kernel_cost_model_for("gfc").name == "gfc"
