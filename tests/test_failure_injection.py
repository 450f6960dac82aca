"""Failure injection: corrupted payloads and headers through the full
stack must fail loudly, never deliver silently-wrong data."""

import numpy as np
import pytest

from repro.compression import MpcCompressor, ZfpCompressor, get_compressor
from repro.compression.base import CompressedData
from repro.core import CompressionConfig
from repro.core.header import CompressionHeader
from repro.errors import CompressionError, HeaderError, ReproError

from tests.conftest import smooth_f32


def test_mpc_bitflip_in_bitmap_detected_or_lossless_mismatch(smooth_signal):
    """Flipping a bitmap bit changes the nonzero-word count, which the
    size consistency check must catch."""
    codec = MpcCompressor(1)
    comp = codec.compress(smooth_signal)
    payload = comp.payload.copy()
    payload[0] ^= 0x80
    comp.payload = payload
    with pytest.raises(CompressionError):
        codec.decompress(comp)


def test_mpc_wrong_element_count_detected(smooth_signal):
    codec = MpcCompressor(1)
    comp = codec.compress(smooth_signal)
    bad = CompressedData(
        algorithm="mpc", payload=comp.payload,
        n_elements=comp.n_elements + 1000, dtype=comp.dtype,
        params=comp.params,
    )
    with pytest.raises(CompressionError):
        codec.decompress(bad)


def test_zfp_payload_swap_wrong_rate_fails_or_bounded():
    """Decoding with the wrong rate must fail on size, not produce a
    silently plausible array of the wrong length."""
    x = smooth_f32(1000)
    comp8 = ZfpCompressor(8).compress(x)
    bad = CompressedData(
        algorithm="zfp", payload=comp8.payload, n_elements=1000,
        dtype=np.float32, params={"rate": 16},
    )
    with pytest.raises(CompressionError):
        ZfpCompressor(16).decompress(bad)


def test_header_garbage_bytes():
    with pytest.raises(HeaderError):
        CompressionHeader.unpack(b"\x00" * 32)
    with pytest.raises(HeaderError):
        CompressionHeader.unpack(b"")


def test_header_unknown_algorithm_code():
    raw = bytearray(CompressionHeader.uncompressed(8).pack())
    raw[2] = 99  # algorithm code
    with pytest.raises(HeaderError):
        CompressionHeader.unpack(bytes(raw))


def test_engine_rejects_partition_sum_mismatch():
    """A header whose partition sizes disagree with the payload length
    must be rejected by the receiver pipeline."""
    from repro.core.engine import CompressionEngine
    from repro.gpu.device import Device
    from repro.gpu.spec import V100
    from repro.sim import Simulator

    sim = Simulator()
    eng = CompressionEngine(sim, Device(sim, V100, 0),
                            CompressionConfig.mpc_opt(threshold=0))
    data = smooth_f32(100_000)
    plan = sim.run_process(eng.sender_prepare(data))
    tampered = CompressionHeader.for_message(
        "mpc", np.float32, plan.header.n_elements, 1,
        tuple(s + 8 for s in plan.header.partition_sizes),
    )

    def proc():
        res = yield from eng.receiver_prepare(tampered)
        out, _ = yield from eng.receiver_complete(tampered, plan.payload, res)
        return out

    with pytest.raises(ReproError):
        sim.run_process(proc())


def test_sz_corrupted_outlier_section(rng):
    codec = get_compressor("sz", error_bound=1e-4)
    x = (rng.standard_normal(500) * 1e7).astype(np.float32)  # many outliers
    comp = codec.compress(x)
    comp.payload = comp.payload[:-4]  # drop one outlier value
    with pytest.raises(CompressionError):
        codec.decompress(comp)


def test_gfc_code_nibble_corruption(rng):
    codec = get_compressor("gfc")
    comp = codec.compress(np.cumsum(rng.standard_normal(100)))
    payload = comp.payload.copy()
    payload[0] = 0xFF  # lz code 15 > 8
    comp.payload = payload
    with pytest.raises(CompressionError):
        codec.decompress(comp)


def test_lossless_roundtrip_after_recovery(smooth_signal):
    """A failed decompress must not poison codec state: the next good
    message decodes fine."""
    codec = MpcCompressor(1)
    comp = codec.compress(smooth_signal)
    broken = CompressedData(
        algorithm="mpc", payload=comp.payload[:10], n_elements=comp.n_elements,
        dtype=comp.dtype, params=comp.params,
    )
    with pytest.raises(CompressionError):
        codec.decompress(broken)
    out = codec.decompress(comp)
    assert np.array_equal(out.view(np.uint32), smooth_signal.view(np.uint32))
