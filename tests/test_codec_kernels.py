"""The tiled, native-width ZFP and MPC kernels against their whole-array
oracles (``tests/codec_oracles.py``), their memory footprint, and the
decoder-side input validation every codec shares.

The differential tests run at the production tile size and again with
``_TILE_BYTES`` shrunk (the ``tile`` fixture of ``conftest.py``) so that small adversarial arrays cross many tile
boundaries, including a ragged last tile and a ragged last block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available, get_compressor, mpc
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


# -- block sparsity --------------------------------------------------------------
#
# A block of w words is *live* when one of its LNV residuals is non-zero.
# The kernels run zigzag, transpose and zero elimination on live blocks
# only; the oracles know nothing of that.

def _udtype(dtype):
    return np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64


def _with_liveness(dtype, dim: int, live, n: int, seed: int = 0) -> np.ndarray:
    """``n`` values whose block ``b`` has non-zero residuals at stride
    ``dim`` exactly when ``live[b]``: the residuals are drawn (full-range
    words, so NaN and inf patterns occur) and integrated per phase."""
    udtype = _udtype(dtype)
    w = np.dtype(dtype).itemsize * 8
    live = np.asarray(live, dtype=bool)
    assert live.size == -(-n // w)
    rng = np.random.default_rng([seed, n, dim])
    resid = rng.integers(0, 1 << 64, live.size * w, dtype=np.uint64).astype(udtype)
    resid[rng.random(resid.size) < 0.5] = 0  # live blocks hold zero words too
    resid[::w] |= udtype(1)                  # ... and at least one non-zero
    resid[~np.repeat(live, w)] = 0
    resid = resid[:n]
    m = -(-n // dim)
    buf = np.zeros(m * dim, dtype=udtype)
    buf[:n] = resid
    return np.cumsum(buf.reshape(m, dim), axis=0,
                     dtype=udtype).reshape(-1)[:n].view(dtype)


def _assert_matches_oracles(data: np.ndarray, dim: int) -> None:
    codec = MpcCompressor(dim)
    comp = codec.compress(data)
    want = mpc_compress_oracle(data, dim)
    assert comp.payload.tobytes() == want.tobytes()
    out = codec.decompress(comp)
    assert out.tobytes() == data.tobytes()
    assert out.tobytes() == mpc_decompress_oracle(
        want, data.size, data.dtype, dim).tobytes()


def _liveness_patterns(nblocks: int):
    rng = np.random.default_rng(nblocks)
    one = np.eye(nblocks, dtype=bool)
    yield "all dead", np.zeros(nblocks, dtype=bool)
    yield "first only", one[0]
    yield "middle only", one[nblocks // 2]
    yield "last only", one[-1]
    yield "alternating", np.arange(nblocks) % 2 == 0
    yield "alternating, odd", np.arange(nblocks) % 2 == 1
    for share in (0.13, 0.5):
        yield f"{share:.0%} live", rng.random(nblocks) < share
    yield "all live", np.ones(nblocks, dtype=bool)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mpc_matches_oracle_on_every_liveness_pattern(dtype, dim, tile):
    w = np.dtype(dtype).itemsize * 8
    # whole tiles; a ragged last tile; a ragged (padded) last block, which
    # "last only" and "all live" make live and the other patterns mostly dead
    for n in (16 * w, 21 * w, 21 * w + 5, 8 * w - 1, 2 * w + 1):
        for name, live in _liveness_patterns(-(-n // w)):
            data = _with_liveness(dtype, dim, live, n)
            try:
                _assert_matches_oracles(data, dim)
            except AssertionError as exc:
                raise AssertionError(f"{name}, n={n}") from exc


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fill", [0.0, 1.5, -0.0, np.nan])
def test_mpc_matches_oracle_on_constant_arrays(dtype, fill, tile):
    """A constant array is dead but for the first word (which has no
    predecessor); zeros are dead throughout."""
    for n in (1, 63, 64, 65, 1000, 4099):
        for dim in (1, 2, 3):
            _assert_matches_oracles(np.full(n, fill, dtype=dtype), dim)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mpc_matches_oracle_on_special_values_in_dead_and_live_blocks(dtype, tile):
    """Runs of one NaN / -0.0 / denormal pattern span dead blocks; the
    same patterns mixed make live ones."""
    info = np.finfo(dtype)
    specials = np.array([np.nan, -np.nan, -0.0, 0.0, info.smallest_subnormal,
                         -info.smallest_subnormal, np.inf, -np.inf, info.max],
                        dtype=dtype)
    rng = np.random.default_rng(5)
    runs = [np.full(int(rng.integers(70, 400)), v, dtype=dtype) for v in specials]
    mixed = rng.choice(specials, 333)
    data = np.concatenate(runs[:5] + [mixed] + runs[5:] + [mixed[:77]])
    for dim in (1, 2, 3):
        _assert_matches_oracles(data, dim)


def test_mpc_matches_oracle_on_msg_sppm(tile):
    """The catalog dataset the sparsity comes from (about one block in
    eight live), as float32 and widened to float64, ragged."""
    data = make_payload("dataset:msg_sppm", 96 * 1024, 7)[:-3]
    _assert_matches_oracles(data, 1)
    _assert_matches_oracles(data, 2)
    _assert_matches_oracles(data[:6001].astype(np.float64), 1)


@settings(max_examples=60, deadline=None)
@given(live=st.lists(st.booleans(), min_size=1, max_size=40),
       cut=st.integers(min_value=0, max_value=31),
       dim=st.sampled_from([1, 2, 3]),
       dtype=st.sampled_from([np.float32, np.float64]),
       tile_bytes=st.sampled_from([1024, mpc._TILE_BYTES]))
def test_property_mpc_matches_oracle_for_any_liveness_mask(
        live, cut, dim, dtype, tile_bytes):
    w = np.dtype(dtype).itemsize * 8
    n = len(live) * w - cut  # cut < w: the last block is padded, not dropped
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc, "_TILE_BYTES", tile_bytes)
        _assert_matches_oracles(_with_liveness(dtype, dim, live, n), dim)


def _spy(monkeypatch, name: str) -> list:
    """Record the positional arguments of every call of ``mpc.<name>``."""
    calls = []
    real = getattr(mpc, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mpc, name, spy)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mpc_dead_tiles_run_no_butterflies_and_live_tiles_no_gather(
        dtype, monkeypatch):
    """Tiles of 8 (f32) / 2 (f64) blocks: all live, all dead, half
    live.  Only live blocks are ever transposed; only the mixed tile is
    gathered (encode) and scattered (decode)."""
    monkeypatch.setattr(mpc, "_TILE_BYTES", 1024)
    w = np.dtype(dtype).itemsize * 8
    tile = 1024 * 8 // (w * w)
    live = np.r_[np.ones(tile, bool), np.zeros(tile, bool),
                 np.arange(tile) % 2 == 0]
    data = _with_liveness(dtype, 1, live, live.size * w)
    codec = MpcCompressor(1)
    transposed = _spy(monkeypatch, "_transpose_tile")
    gathered = _spy(monkeypatch, "_gather_blocks")
    scattered = _spy(monkeypatch, "_scatter_blocks")

    comp = codec.compress(data)
    assert [args[0].shape for args in transposed] == [(tile, w), (tile // 2, w)]
    assert len(gathered) == 1 and len(scattered) == 0
    del transposed[:], gathered[:]

    assert codec.decompress(comp).tobytes() == data.tobytes()
    assert [args[0].shape for args in transposed] == [(tile, w), (tile // 2, w)]
    assert len(gathered) == 0 and len(scattered) == 1


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
