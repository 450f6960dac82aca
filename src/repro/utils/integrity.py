"""Payload integrity helpers: CRC32 checksums and deterministic bit flips.

Shared by the resilience layer (which stamps and verifies checksums)
and the fault injector (which corrupts payloads).  Both operate on the
raw byte image of a payload, so the checks are dtype-agnostic and a
single flipped bit anywhere is always detected.

:func:`crc32_of_parts` builds the CRC of a concatenation from the CRCs
of its pieces (zlib's ``crc32_combine``, which Python's :mod:`zlib`
does not expose), so a message whose partitions were hashed already is
stamped without hashing its bytes a second time.
"""

from __future__ import annotations

import functools
import zlib
from typing import Any, Iterable

import numpy as np

__all__ = ["payload_crc32", "crc32_combine", "crc32_of_parts", "flip_bit"]

#: CRC-32's generator polynomial, bit-reflected (as zlib writes it)
_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial, in the reflected bit
    order of CRC values (zlib's ``multmodp``; ``a`` must be non-zero)."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _x2n_table() -> tuple:
    """``x^(2^k)`` modulo the polynomial, k = 0..31."""
    p = 1 << 30  # x^1
    table = [p]
    for _ in range(31):
        p = _multmodp(p, p)
        table.append(p)
    return tuple(table)


_X2N = _x2n_table()


@functools.lru_cache(maxsize=128)
def _shift(nbytes: int) -> int:
    """``x^(8 * nbytes)`` modulo the polynomial: the factor that moves a
    CRC past ``nbytes`` appended bytes (zlib's ``x2nmodp(nbytes, 3)``).
    Memoized: a message's partitions come in a handful of lengths."""
    p = 1 << 31  # x^0
    k = 3
    while nbytes:
        if nbytes & 1:
            p = _multmodp(_X2N[k & 31], p)
        nbytes >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``A + B`` from ``crc1`` = CRC-32 of ``A``, ``crc2`` =
    CRC-32 of ``B`` and ``len2`` = ``len(B)`` in bytes."""
    return _multmodp(_shift(len2), crc1) ^ crc2


def crc32_of_parts(parts: Iterable[tuple[int, int]]) -> int:
    """CRC-32 of the concatenation of byte strings given as
    ``(crc32, nbytes)`` pairs, in order; 0 (the CRC of nothing) for
    none."""
    crc = 0
    for part_crc, nbytes in parts:
        crc = crc32_combine(crc, part_crc, nbytes)
    return crc


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
