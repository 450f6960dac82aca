"""The tiled, native-width ZFP and MPC kernels against their whole-array
oracles (``tests/codec_oracles.py``), their memory footprint, and the
decoder-side input validation every codec shares.

The differential tests run at the production tile size and again with
``_TILE_BYTES`` shrunk so that small adversarial arrays cross many tile
boundaries, including a ragged last tile and a ragged last block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compression import available, get_compressor, mpc, zfp
from repro.compression.base import CompressedData
from repro.compression.mpc import MpcCompressor, bit_transpose
from repro.compression.zfp import ZfpCompressor
from repro.compression.zfp2d import Zfp2dCompressor
from repro.errors import CompressionError
from repro.omb.payload import make_payload
from repro.utils.units import MiB
from tests.codec_oracles import (
    bit_transpose_oracle, mpc_compress_oracle, mpc_decompress_oracle,
    zfp_compress_oracle, zfp_decompress_oracle,
)


@pytest.fixture(params=["production-tile", "tiny-tile"])
def tile(request, monkeypatch):
    """Run a test at the production tile size and at one of a few blocks."""
    if request.param == "tiny-tile":
        monkeypatch.setattr(zfp, "_TILE_BYTES", 256)    # 16 f32 / 8 f64 blocks
        monkeypatch.setattr(mpc, "_TILE_BYTES", 1024)   # 8 u32 / 2 u64 blocks
    return request.param


# -- adversarial inputs --------------------------------------------------------

def _adversarial(dtype) -> np.ndarray:
    """Finite values chosen to strain every encode stage: the block
    exponent (one frexp of the block maximum), the fixed-point
    conversion at native width, and the int32/int64 forward lift."""
    dtype = np.dtype(dtype)
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    rng = np.random.default_rng(20240915)
    parts = []
    # all 16 sign patterns of blocks whose four mantissas are all ones,
    # from the smallest normal binade to the largest (FLT_MAX / DBL_MAX)
    signs = np.array([[1 if (p >> c) & 1 else -1 for c in range(4)]
                      for p in range(16)], dtype=np.float64)
    for e in (info.minexp, -30, -1, 0, 1, 30, info.maxexp - 1):
        top = np.nextafter(dtype.type(2.0), dtype.type(0)) * dtype.type(2.0) ** e
        parts.append((signs * float(top)).reshape(-1))
    # +-MAX alternations, alone and beside tiny values
    parts.append(np.array([info.max, -info.max] * 4))
    parts.append(np.array([info.max, tiny, -info.max, -tiny,
                           -info.max, info.tiny, info.max, 0.0]))
    # denormal-only blocks, with all-zero blocks between non-zero ones
    parts.append(np.array([tiny, -tiny, 3 * tiny, 0.0,
                           0.0, 0.0, 0.0, 0.0,
                           info.tiny - tiny, -(info.tiny - tiny), tiny, -tiny,
                           0.0, 0.0, 0.0, 0.0,
                           0.0, 0.0, 0.0, tiny]))
    # one binade apart inside a block: the block maximum decides emax
    parts.append(np.array([1.0, np.nextafter(2.0, 0), -2.0, 0.5, -0.0, 0.0, 0.0, 0.0]))
    # exponents spanning the whole type, random mantissas, mixed per block
    exps = rng.integers(info.minexp - info.nmant, info.maxexp, 1536)
    mant = rng.uniform(-1.0, 1.0, 1536)
    parts.append(np.ldexp(mant, exps))
    # full-range random bit patterns (finite ones), then a smooth run
    bits = rng.integers(0, 1 << (8 * dtype.itemsize - 1), 1024, dtype=np.uint64)
    raw = bits.astype(f"uint{8 * dtype.itemsize}").view(dtype)
    parts.append(np.where(np.isfinite(raw), raw, 0).astype(np.float64)
                 * rng.choice([-1.0, 1.0], 1024))
    parts.append(np.cumsum(rng.standard_normal(1021)) * 1e-3)  # ragged tail
    with np.errstate(over="ignore"):
        data = np.concatenate(parts).astype(dtype)
    assert np.isfinite(data).all()
    return data


@pytest.mark.parametrize("dtype,rates", [
    (np.float32, range(3, 33)),
    (np.float64, (3, 4, 8, 13, 16, 31, 32, 33, 48, 63, 64)),
])
def test_zfp_matches_whole_array_oracle_on_adversarial_values(dtype, rates, tile):
    data = _adversarial(dtype)
    for rate in rates:
        codec = ZfpCompressor(rate)
        comp = codec.compress(data)
        want = zfp_compress_oracle(data, rate)
        assert comp.payload.tobytes() == want.tobytes(), f"stream, rate {rate}"
        assert (codec.decompress(comp).tobytes()
                == zfp_decompress_oracle(want, data.size, dtype, rate).tobytes()
                ), f"decoded, rate {rate}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 31, 32, 33, 64 * 4 - 1, 64 * 4, 64 * 4 + 1])
def test_zfp_matches_oracle_at_tile_and_block_edges(dtype, n, tile):
    data = _adversarial(dtype)[100: 100 + n]
    for rate in (3, 8, 13):
        codec = ZfpCompressor(rate)
        comp = codec.compress(data)
        want = zfp_compress_oracle(data, rate)
        assert comp.payload.tobytes() == want.tobytes()
        assert comp.nbytes == codec.expected_compressed_bytes(n, data.itemsize)
        assert (codec.decompress(comp).tobytes()
                == zfp_decompress_oracle(want, n, dtype, rate).tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zfp_decode_matches_oracle_on_arbitrary_streams(dtype, tile):
    """Decode is defined on every stream of the right size, not only on
    encoder output: random bytes carry truncation patterns and exponent
    fields no encoder emits (this is where an int32 inverse lift
    diverges)."""
    rng = np.random.default_rng(4)
    n = 4099
    for rate in (3, 4, 8, 16, 32):
        codec = ZfpCompressor(rate)
        stream = rng.integers(0, 256, codec.expected_compressed_bytes(n, 0),
                              dtype=np.uint8)
        comp = CompressedData("zfp", stream, n, dtype, params={"rate": rate})
        with np.errstate(over="ignore"):
            want = zfp_decompress_oracle(stream, n, dtype, rate)
        assert codec.decompress(comp).tobytes() == want.tobytes(), f"rate {rate}"


def test_zfp_rejects_non_finite_in_any_tile(tile):
    data = np.ones(5000, dtype=np.float32)
    for bad in (np.nan, np.inf, -np.inf):
        for where in (0, 2501, 4999):
            x = data.copy()
            x[where] = bad
            with pytest.raises(CompressionError, match="finite"):
                ZfpCompressor(8).compress(x)


def _word_patterns(udtype, n: int) -> np.ndarray:
    """Raw words: random bits (NaN and inf patterns included), runs of
    equal words, zeros and single-bit words."""
    rng = np.random.default_rng(n)
    w = np.dtype(udtype).itemsize * 8
    words = rng.integers(0, 1 << 64, n, dtype=np.uint64).astype(udtype)
    words[n // 5: 2 * n // 5] = words[n // 5]
    words[2 * n // 5: n // 2] = 0
    k = min(w, n - n // 2)
    words[n // 2: n // 2 + k] = udtype(1) << np.arange(k, dtype=udtype)
    return words


@pytest.mark.parametrize("udtype", [np.uint32, np.uint64])
def test_bit_transpose_matches_oracle(udtype, tile):
    w = np.dtype(udtype).itemsize * 8
    for nblocks in (1, 2, 7, 8, 9, 33):
        words = _word_patterns(udtype, nblocks * w)
        got = bit_transpose(words)
        assert got.tobytes() == bit_transpose_oracle(words).tobytes()
        assert bit_transpose(got).tobytes() == words.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 64, 100, 5000])
def test_mpc_matches_whole_array_oracle(dtype, dim, tile):
    w = np.dtype(dtype).itemsize * 8
    udtype = np.uint32 if w == 32 else np.uint64
    codec = MpcCompressor(dim)
    for n in (0, 1, w - 1, w, w + 1, 8 * w, 8 * w + 1, 16 * w - 1, 21 * w + 5):
        data = _word_patterns(udtype, max(n, 1))[:n].view(dtype)
        comp = codec.compress(data)
        want = mpc_compress_oracle(data, dim)
        assert comp.payload.tobytes() == want.tobytes(), (dim, n)
        out = codec.decompress(comp)
        assert out.tobytes() == data.tobytes(), (dim, n)
        assert out.tobytes() == mpc_decompress_oracle(want, n, dtype, dim).tobytes()


def test_kernels_match_oracles_across_production_tiles():
    """Three production tiles and a ragged tail, at the real tile size."""
    rng = np.random.default_rng(99)
    n = 3 * 65536 + 4099
    walk = np.cumsum(rng.standard_normal(n))
    for dtype in (np.float32, np.float64):
        data = walk.astype(dtype)
        for rate in (4, 13):
            comp = ZfpCompressor(rate).compress(data)
            want = zfp_compress_oracle(data, rate)
            assert comp.payload.tobytes() == want.tobytes()
            assert (ZfpCompressor(rate).decompress(comp).tobytes()
                    == zfp_decompress_oracle(want, n, dtype, rate).tobytes())
        for dim in (1, 3):
            comp = MpcCompressor(dim).compress(data)
            assert comp.payload.tobytes() == mpc_compress_oracle(data, dim).tobytes()
            assert MpcCompressor(dim).decompress(comp).tobytes() == data.tobytes()


# -- footprint -----------------------------------------------------------------

def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("codec", [ZfpCompressor(8), MpcCompressor(1)],
                         ids=["zfp8", "mpc"])
def test_16mib_message_allocates_no_message_sized_temporary(codec):
    """Beyond its output a kernel holds only tile scratch (1-2 MiB
    measured; a quarter of the message allowed), where the whole-array
    kernels held ~100 MiB of temporaries."""
    data = make_payload("wave", 16 * MiB, 11)
    comp = codec.compress(data)
    # MPC's payload is allocated at the worst case (every word kept)
    # and shrunk in place; ZFP's at its exact size.
    out_bytes = (comp.nbytes if codec.name == "zfp"
                 else data.nbytes + data.nbytes // 32)
    slack = data.nbytes // 4
    assert _peak_bytes(lambda: codec.compress(data)) < out_bytes + slack
    assert _peak_bytes(lambda: codec.decompress(comp)) < data.nbytes + slack


# -- decoder input validation --------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extra", [1, 7, 4096])
def test_zfp_rejects_trailing_bytes(dtype, extra):
    """Fixed-rate size is exactly predictable: a payload that is too
    long is as malformed as one that is too short."""
    data = np.linspace(0.0, 1.0, 1001).astype(dtype)
    codec = ZfpCompressor(8)
    comp = codec.compress(data)
    padded = CompressedData(
        "zfp", np.concatenate([comp.payload, np.zeros(extra, np.uint8)]),
        comp.n_elements, comp.dtype, params=dict(comp.params))
    with pytest.raises(CompressionError, match="size mismatch"):
        codec.decompress(padded)
    short = CompressedData("zfp", comp.payload[:-1], comp.n_elements,
                           comp.dtype, params=dict(comp.params))
    with pytest.raises(CompressionError, match="size mismatch"):
        codec.decompress(short)


def _every_codec():
    return [get_compressor(name) for name in available()]


def _valid(codec) -> CompressedData:
    dtype = codec.supported_dtypes[0]
    data = np.linspace(-1.0, 1.0, 256).astype(dtype)
    if isinstance(codec, Zfp2dCompressor):
        data = data.reshape(16, 16)
    return codec.compress(data)


@pytest.mark.parametrize("codec", _every_codec(), ids=lambda c: c.name)
def test_negative_element_count_is_a_compression_error(codec):
    comp = _valid(codec)
    comp.n_elements = -comp.n_elements
    with pytest.raises(CompressionError, match="negative element count"):
        codec.decompress(comp)


@pytest.mark.parametrize("codec", _every_codec(), ids=lambda c: c.name)
@pytest.mark.parametrize("dtype", [np.int32, np.float16, np.complex64])
def test_unsupported_dtype_is_a_compression_error(codec, dtype):
    comp = _valid(codec)
    comp.dtype = np.dtype(dtype)
    with pytest.raises(CompressionError, match="unsupported dtype"):
        codec.decompress(comp)
