"""Payload integrity helpers: CRC32 checksums and deterministic bit flips.

Shared by the resilience layer (which stamps and verifies checksums)
and the fault injector (which corrupts payloads).  Both operate on the
raw byte image of a payload, so the checks are dtype-agnostic and a
single flipped bit anywhere is always detected.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

__all__ = ["payload_crc32", "flip_bit"]


def _raw_bytes(payload: Any) -> bytes:
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload).tobytes()
    return bytes(payload)


def payload_crc32(payload: Any) -> int:
    """CRC32 of a payload's byte image (ndarray or bytes-like)."""
    if isinstance(payload, np.ndarray):
        # zlib consumes the buffer directly; a contiguous uint8 view
        # avoids materializing a bytes copy of the whole payload.
        return zlib.crc32(np.ascontiguousarray(payload).view(np.uint8)) & 0xFFFFFFFF
    try:
        return zlib.crc32(payload) & 0xFFFFFFFF  # bytes-likes hash in place
    except (TypeError, BufferError):  # an int sequence, a strided view
        return zlib.crc32(bytes(payload)) & 0xFFFFFFFF


def flip_bit(payload: Any, bit_index: int):
    """Return a copy of ``payload`` with one bit flipped.

    ``bit_index`` is taken modulo the payload's bit length; an ndarray
    keeps its dtype and shape so the corrupted copy is indistinguishable
    from the original at the type level (as a wire-level flip would be).
    """
    raw = bytearray(_raw_bytes(payload))
    if not raw:
        return payload
    bit = bit_index % (len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    if isinstance(payload, np.ndarray):
        return np.frombuffer(bytes(raw), dtype=payload.dtype).reshape(payload.shape)
    return bytes(raw)
