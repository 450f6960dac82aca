"""Property test: ZFP's lane-based bit assembly must be bit-identical
to the bit-matrix oracle at every rate.

The vectorized packer (``pack_block_fields``) picks its lane word
size per block width and has three emission paths (exact-cover,
byte-aligned, bit-sliced); this sweep pins all of them, for the 1-D
and 2-D codecs, against the unpackbits-based reference in
``tests/codec_oracles.py``.  For the 1-D codec the oracle is the whole
pre-tiling encoder/decoder, so the arithmetic is crossed too.
"""

import numpy as np
import pytest

from repro.compression import zfp2d
from repro.compression.zfp import (
    ZfpCompressor, pack_block_fields, unpack_block_fields,
)
from repro.compression.zfp2d import Zfp2dCompressor
from tests.codec_oracles import (
    pack_block_fields_reference, unpack_block_fields_reference,
    zfp_compress_oracle, zfp_decompress_oracle,
)


def _signal(n: int, dtype):
    x = np.arange(n, dtype=np.float64)
    out = np.sin(x / 7.0) * 100.0 + np.cos(x / 23.0) + x / 997.0
    out[::97] = 0.0  # exercise all-zero / mixed blocks
    out[5:9] = 0.0  # one fully-zero block
    return out.astype(dtype)


@pytest.mark.parametrize("dtype,rates", [
    (np.float32, range(3, 33)),
    (np.float64, range(3, 65)),
])
def test_zfp1d_fast_matches_reference_all_rates(dtype, rates):
    data = _signal(1021, dtype)  # non-multiple of 4: tail block
    for rate in rates:
        fast = ZfpCompressor(rate)
        cf = fast.compress(data)
        ref_stream = zfp_compress_oracle(data, rate)
        assert cf.payload.tobytes() == ref_stream.tobytes(), (
            f"stream mismatch at rate {rate} ({np.dtype(dtype).name})")
        df = fast.decompress(cf)
        dr = zfp_decompress_oracle(ref_stream, data.size, dtype, rate)
        assert df.tobytes() == dr.tobytes(), (
            f"decode mismatch at rate {rate} ({np.dtype(dtype).name})")


@pytest.mark.parametrize("rate", range(1, 33))
def test_zfp2d_fast_matches_reference_all_rates(rate, monkeypatch):
    data = _signal(37 * 18, np.float32).reshape(37, 18)  # padded edges
    codec = Zfp2dCompressor(rate)
    cf = codec.compress(data)
    df = codec.decompress(cf)
    # The same codec with the bit-matrix packer swapped in.
    monkeypatch.setattr(zfp2d, "pack_block_fields", pack_block_fields_reference)
    monkeypatch.setattr(zfp2d, "unpack_block_fields", unpack_block_fields_reference)
    cr = codec.compress(data)
    assert cf.payload.tobytes() == cr.payload.tobytes(), f"rate {rate}"
    assert df.tobytes() == codec.decompress(cr).tobytes()


def test_helper_roundtrip_matches_reference_odd_widths():
    rng = np.random.default_rng(7)
    for widths in ([12, 5, 3, 1], [12, 31, 17, 9], [7], [12, 33, 52, 40]):
        block_bits = sum(widths)
        nblocks = 65
        fields = [rng.integers(0, 1 << min(w, 62), nblocks, dtype=np.uint64)
                  for w in widths]
        fast = pack_block_fields(fields, widths, block_bits)
        ref = pack_block_fields_reference(fields, widths, block_bits)
        assert fast.tobytes() == ref.tobytes(), widths
        got = unpack_block_fields(fast, widths, block_bits, nblocks)
        want = unpack_block_fields_reference(ref, widths, block_bits, nblocks)
        for g, w_arr in zip(got, want):
            assert np.array_equal(g.astype(np.uint64), w_arr.astype(np.uint64))
