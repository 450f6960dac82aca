"""Every registered codec rejects a payload of the wrong size with a
:class:`CompressionError` — never another exception, never a decode.

The size of a stream is either fixed by the header (``null``, ``zfp``,
``zfp2d``) or spelled out by the stream itself (``mpc``'s bitmap,
``fpc``/``gfc``'s codes, ``sz``'s widths and outlier bitmap); either
way the decoder knows it before it views or indexes anything.
"""

import re

import numpy as np
import pytest

from repro.compression import available, get_compressor
from repro.compression.base import CompressedData
from repro.compression.mpc import MpcCompressor
from repro.compression.zfp2d import Zfp2dCompressor
from repro.errors import CompressionError

MALFORMED = {
    "one byte more": lambda p: np.concatenate([p, np.zeros(1, np.uint8)]),
    "seven bytes more": lambda p: np.concatenate([p, np.full(7, 0xFF, np.uint8)]),
    "one byte less": lambda p: p[:-1],
    "half": lambda p: p[: p.size // 2],
    "empty": lambda p: p[:0],
}


def _codecs_and_dtypes():
    for name in available():
        codec = get_compressor(name)
        for dtype in codec.supported_dtypes:
            yield pytest.param(codec, np.dtype(dtype), id=f"{name}-{np.dtype(dtype).name}")


def _valid(codec, dtype) -> CompressedData:
    """A stream with every optional section present: ragged last block,
    a spike (``sz`` outliers), runs of equal values (dead ``mpc``
    blocks, zero ``fpc``/``gfc`` codes)."""
    data = np.linspace(-1.0, 1.0, 1023).astype(dtype)
    data[300:500] = data[300]
    data[700] = 1e6
    if isinstance(codec, Zfp2dCompressor):
        data = data[:1020].reshape(30, 34)
    return codec.compress(data)


def test_the_matrix_covers_the_registry():
    assert {"gfc", "fpc", "mpc", "zfp", "zfp2d", "sz", "null"} <= set(available())


@pytest.mark.parametrize("codec,dtype", _codecs_and_dtypes())
@pytest.mark.parametrize("case", MALFORMED)
def test_wrong_payload_size_is_a_compression_error(codec, dtype, case):
    comp = _valid(codec, dtype)
    codec.decompress(comp)  # the stream is good until it is resized
    comp.payload = MALFORMED[case](comp.payload)
    with pytest.raises(CompressionError):
        codec.decompress(comp)


@pytest.mark.parametrize("codec,dtype", [
    p for p in _codecs_and_dtypes() if p.values[0].name in ("zfp2d", "sz", "null")])
@pytest.mark.parametrize("case", MALFORMED)
def test_size_errors_name_both_sizes(codec, dtype, case):
    comp = _valid(codec, dtype)
    comp.payload = MALFORMED[case](comp.payload)
    with pytest.raises(CompressionError, match=(
            rf"^{codec.name} payload size mismatch: expected \d+ bytes, "
            rf"have {comp.payload.size}$")):
        codec.decompress(comp)


@pytest.mark.parametrize("name", ["zfp2d", "sz", "null"])
def test_an_empty_message_has_an_empty_payload(name):
    codec = get_compressor(name)
    empty = np.empty((0, 0) if name == "zfp2d" else 0, dtype=np.float32)
    comp = codec.compress(empty)
    assert codec.decompress(comp).size == 0
    comp.payload = np.zeros(3, np.uint8)
    with pytest.raises(CompressionError, match="expected 0 bytes, have 3"):
        codec.decompress(comp)


# -- MPC: the bitmap is what sizes the stream -----------------------------------
# (``tile``: conftest.py — production tiles, then tiles of 8 u32 / 2 u64 blocks)

def _sparse_stream(dtype):
    """21 blocks and a ragged one, every third block live."""
    w = np.dtype(dtype).itemsize * 8
    data = np.zeros(21 * w + 5, dtype=dtype)
    for b in range(0, 22, 3):
        data[b * w + 1: b * w + 5] = (1, 2, 3, 4)
    comp = MpcCompressor(1).compress(data)
    return data, comp, w


def _mismatch(expect: int, have: int) -> str:
    return "^" + re.escape(
        f"mpc payload size mismatch: expected {expect} bytes, have {have}") + "$"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mpc_bit_set_in_a_dead_block_with_no_word_behind_it(dtype, tile):
    data, comp, w = _sparse_stream(dtype)
    codec = MpcCompressor(1)
    assert codec.decompress(comp).tobytes() == data.tobytes()
    word_bytes = w // 8
    size = comp.payload.size
    for block in (1, 10, 20):  # dead ones, in the first, a middle and the last tile
        payload = comp.payload.copy()
        assert not payload[block * word_bytes: (block + 1) * word_bytes].any()
        payload[block * word_bytes + 2] |= 0x10
        bad = CompressedData("mpc", payload, comp.n_elements, comp.dtype,
                             params=dict(comp.params))
        with pytest.raises(CompressionError, match=_mismatch(size + word_bytes, size)):
            codec.decompress(bad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mpc_all_dead_bitmap_with_surplus_words(dtype, tile):
    codec = MpcCompressor(1)
    comp = codec.compress(np.zeros(1000, dtype=dtype))
    bitmap_bytes = comp.payload.size
    assert not comp.payload.any()
    word_bytes = np.dtype(dtype).itemsize
    comp.payload = np.concatenate(
        [comp.payload, np.full(3 * word_bytes, 0xAB, np.uint8)])
    with pytest.raises(CompressionError, match=_mismatch(
            bitmap_bytes, bitmap_bytes + 3 * word_bytes)):
        codec.decompress(comp)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mpc_popcount_and_size_disagree_inside_the_last_tile(dtype, tile):
    data, comp, w = _sparse_stream(dtype)
    codec = MpcCompressor(1)
    word_bytes = w // 8
    size = comp.payload.size
    # the ragged last block (21) is live: clear one of its bitmap bits,
    # so the stream carries one word more than the bitmap admits ...
    last = comp.payload[21 * word_bytes: 22 * word_bytes]
    assert last.any()
    payload = comp.payload.copy()
    byte = 21 * word_bytes + int(np.flatnonzero(last)[0])
    payload[byte] &= payload[byte] - 1  # clears the lowest set bit
    bad = CompressedData("mpc", payload, comp.n_elements, comp.dtype,
                         params=dict(comp.params))
    with pytest.raises(CompressionError, match=_mismatch(size - word_bytes, size)):
        codec.decompress(bad)
    # ... or drop its last word and keep the bitmap
    comp.payload = comp.payload[:-word_bytes]
    with pytest.raises(CompressionError, match=_mismatch(size, size - word_bytes)):
        codec.decompress(comp)


def test_mpc_truncated_bitmap_message_is_unchanged():
    codec = MpcCompressor(1)
    comp = codec.compress(np.arange(1000, dtype=np.float32))
    comp.payload = comp.payload[:100]
    with pytest.raises(CompressionError, match=(
            "^mpc payload truncated: need >= 128 bitmap bytes, have 100$")):
        codec.decompress(comp)
