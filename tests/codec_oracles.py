"""Test-side oracles for the transport codecs.

Production keeps exactly one implementation of every kernel; the slow,
obviously-right formulations it is checked against live here:

* the plain **bit-matrix** field packer/unpacker (``unpackbits`` /
  ``packbits`` over a ``(nblocks, block_bits)`` matrix) that the lane
  packer in :mod:`repro.compression.zfp` must match bit for bit;
* the **whole-array** ZFP 1-D codec, MPC codec and ``bit_transpose`` as
  they stood before the kernels were cache-blocked and narrowed to the
  data's own word width: every stage one numpy pass over the whole
  message, float32 data widened to float64/int64, one ``frexp`` per
  element.  The tiled kernels must reproduce their streams and decoded
  arrays byte for byte.

Nothing here is tuned; it is written to be read.  The ZFP oracle packs
with the bit-matrix packer by default, so one comparison crosses both
the arithmetic and the bit assembly.
"""

from __future__ import annotations

import numpy as np

from repro.compression.zfp import plan_bit_allocation

_EXP_BITS = 12
_EXP_BIAS = 2048


# -- bit-matrix field packing --------------------------------------------------

def pack_block_fields_reference(fields, widths, block_bits: int) -> np.ndarray:
    """Concatenate per-block bit fields MSB-first, via an explicit
    ``(nblocks, block_bits)`` bit matrix."""
    nblocks = fields[0].shape[0]
    out_bits = np.zeros((nblocks, block_bits), dtype=np.uint8)
    off = 0
    for v, k in zip(fields, widths):
        if k:
            fb = np.unpackbits(
                v.astype(">u8").view(np.uint8).reshape(nblocks, 8), axis=1)
            out_bits[:, off:off + k] = fb[:, 64 - k:]
        off += k
    return np.packbits(out_bits.reshape(-1))


def unpack_block_fields_reference(payload, widths, block_bits: int,
                                  nblocks: int) -> list[np.ndarray]:
    """Bit-matrix mirror of :func:`pack_block_fields_reference`."""
    total_bits = nblocks * block_bits
    bits = np.unpackbits(payload[: -(-total_bits // 8)])[:total_bits].reshape(
        nblocks, block_bits)
    fields: list[np.ndarray] = []
    off = 0
    for k in widths:
        if k:
            fb = np.zeros((nblocks, 64), dtype=np.uint8)
            fb[:, 64 - k:] = bits[:, off:off + k]
            v = np.packbits(fb, axis=1).view(">u8").reshape(-1).astype(np.uint64)
        else:
            v = np.zeros(nblocks, dtype=np.uint64)
        fields.append(v)
        off += k
    return fields


# -- whole-array ZFP 1-D -------------------------------------------------------

def _lift4_fwd(x, y, z, w) -> None:
    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    w += y >> 1; y -= w >> 1


def _lift4_inv(x, y, z, w) -> None:
    y += w >> 1; w -= y >> 1
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w


def zfp_compress_oracle(data: np.ndarray, rate: int,
                        pack=pack_block_fields_reference) -> np.ndarray:
    """The pre-tiling 1-D ZFP encoder: float64 ``(4, nblocks)`` values,
    per-element ``frexp``, int64 lift, all over the whole array.
    Returns the payload bytes."""
    data = np.ascontiguousarray(data).reshape(-1)
    width = 32 if data.dtype.itemsize == 4 else 64
    n = data.size
    nblocks = -(-n // 4)
    if nblocks == 0:
        return np.empty(0, np.uint8)
    vals = np.empty((4, nblocks), dtype=np.float64)
    nfull = n // 4
    if nfull:
        vals[:, :nfull] = data[: nfull * 4].reshape(nfull, 4).T
    if nfull != nblocks:
        vals[:, nfull] = 0.0
        tail = data[nfull * 4:]
        vals[: tail.size, nfull] = tail

    _, exps = np.frexp(vals)
    nz = vals != 0.0
    nonzero_block = np.any(nz, axis=0)
    emax = np.where(
        nonzero_block,
        np.max(np.where(nz, exps, np.int32(-(1 << 20))), axis=0),
        np.int32(0))

    headroom = width - 2
    np.ldexp(vals, (headroom - emax)[None, :], out=vals)
    np.rint(vals, out=vals)
    q = vals.astype(np.int64)
    _lift4_fwd(q[0], q[1], q[2], q[3])

    if width == 32:
        u = q.astype(np.uint32)  # truncating cast
        nb = np.uint32(0xAAAAAAAA)
    else:
        u = q.view(np.uint64)
        nb = np.uint64(0xAAAAAAAAAAAAAAAA)
    u += nb
    u ^= nb
    wdt = u.dtype.type

    kept = plan_bit_allocation(rate, width)
    exp_field = np.where(nonzero_block, emax + _EXP_BIAS, 0)
    fields = [exp_field.astype(np.uint32, copy=False)]
    widths = [_EXP_BITS]
    for c in range(4):
        k = kept[c]
        fields.append(u[c] >> wdt(width - k) if k
                      else np.zeros(nblocks, dtype=u.dtype))
        widths.append(k)
    return pack(fields, widths, 4 * rate)


def zfp_decompress_oracle(payload: np.ndarray, n: int, dtype, rate: int,
                          unpack=unpack_block_fields_reference) -> np.ndarray:
    """The pre-tiling 1-D ZFP decoder (whole-array, int64 inverse lift,
    float64 ``ldexp``)."""
    dtype = np.dtype(dtype)
    if n == 0:
        return np.empty(0, dtype=dtype)
    width = 32 if dtype.itemsize == 4 else 64
    nblocks = -(-n // 4)
    kept = plan_bit_allocation(rate, width)
    widths = [_EXP_BITS] + list(kept)
    decoded = unpack(np.asarray(payload, dtype=np.uint8), widths, 4 * rate,
                     nblocks)
    exp_field = decoded[0].astype(np.int32)
    if width == 32:
        u = np.zeros((4, nblocks), dtype=np.uint32)
        nb = np.uint32(0xAAAAAAAA)
    else:
        u = np.zeros((4, nblocks), dtype=np.uint64)
        nb = np.uint64(0xAAAAAAAAAAAAAAAA)
    wdt = u.dtype.type
    for c in range(4):
        k = kept[c]
        if k:
            u[c] = decoded[1 + c].astype(u.dtype, copy=False) << wdt(width - k)
    nonzero_block = exp_field != 0
    emax = np.where(nonzero_block, exp_field - _EXP_BIAS, np.int32(0))

    u ^= nb
    u -= nb
    coeffs = u.view(np.int32 if width == 32 else np.int64)
    if width == 32:
        coeffs = coeffs.astype(np.int64)
    _lift4_inv(coeffs[0], coeffs[1], coeffs[2], coeffs[3])
    headroom = width - 2
    with np.errstate(over="ignore"):
        vals = np.ldexp(coeffs.astype(np.float64), (emax - headroom)[None, :])
        vals[:, ~nonzero_block] = 0.0
        out = np.empty(n, dtype=dtype)
        nfull = n // 4
        if nfull:
            out[: nfull * 4].reshape(nfull, 4)[:] = vals[:, :nfull].T
        if nfull != nblocks:
            out[nfull * 4:] = vals[: n - nfull * 4, nfull]
    return out


# -- whole-array MPC -----------------------------------------------------------

def bit_transpose_oracle(words: np.ndarray) -> np.ndarray:
    """The pre-tiling ``bit_transpose``: the delta-swap butterflies over
    one ``(w, nblocks)`` array holding every block of the message."""
    w = words.dtype.itemsize * 8
    nblocks = words.size // w
    if nblocks == 0:
        return words.copy()
    # (.copy(), where the production code had ascontiguousarray: for a
    # single block that returned a view and the butterflies ran on the
    # caller's array)
    a = words.reshape(nblocks, w).T.copy()
    dt = words.dtype.type
    full = (1 << w) - 1
    m = full >> (w // 2)
    j = w // 2
    while j:
        mm = dt(m)
        jj = dt(j)
        b = a.reshape(w // (2 * j), 2, j, nblocks)
        lo = b[:, 0]
        hi = b[:, 1]
        t = (lo ^ (hi >> jj)) & mm
        lo ^= t
        hi ^= t << jj
        j >>= 1
        if j:
            m = (m ^ (m << j)) & full
    return np.ascontiguousarray(a.T).reshape(-1)


def mpc_compress_oracle(data: np.ndarray, dimensionality: int) -> np.ndarray:
    """The pre-tiling MPC encoder: whole-array LNV residual + zigzag,
    pad, transpose, zero-eliminate.  Returns the payload bytes."""
    data = np.ascontiguousarray(data).reshape(-1)
    w = data.dtype.itemsize * 8
    udtype = np.uint32 if w == 32 else np.uint64
    sdt = np.int32 if w == 32 else np.int64
    words = data.view(udtype)
    d = dimensionality
    r = words.copy()
    if words.size > d:
        r[d:] -= words[:-d]
    ext = (r.view(sdt) >> (w - 1)).view(r.dtype)
    r <<= r.dtype.type(1)
    r ^= ext
    pad = (-r.size) % w
    if pad:
        buf = np.zeros(r.size + pad, dtype=udtype)
        buf[: r.size] = r
        r = buf
    transposed = bit_transpose_oracle(r)
    nonzero = transposed != 0
    return np.concatenate(
        [np.packbits(nonzero),
         transposed[nonzero].astype(f"<u{w // 8}", copy=False).view(np.uint8)])


def mpc_decompress_oracle(payload: np.ndarray, n: int, dtype,
                          dimensionality: int) -> np.ndarray:
    """The pre-tiling MPC decoder (no size validation: the oracle is
    only ever fed well-formed streams)."""
    dtype = np.dtype(dtype)
    w = dtype.itemsize * 8
    udtype = np.uint32 if w == 32 else np.uint64
    sdt = np.int32 if w == 32 else np.int64
    if n == 0:
        return np.empty(0, dtype=dtype)
    n_padded = -(-n // w) * w
    bitmap_bytes = n_padded // 8
    nonzero = np.unpackbits(payload[:bitmap_bytes])[:n_padded].view(np.bool_)
    transposed = np.zeros(n_padded, dtype=udtype)
    transposed[nonzero] = (
        payload[bitmap_bytes:].view(f"<u{w // 8}").astype(udtype, copy=False))
    residuals = bit_transpose_oracle(transposed)[:n]
    ext = residuals << udtype(w - 1)
    sext = ext.view(sdt)
    sext >>= w - 1
    r = residuals >> udtype(1)
    r ^= ext
    d = dimensionality
    if d == 1:
        return np.cumsum(r, dtype=r.dtype).view(dtype)
    m = -(-n // d)
    buf = np.zeros(m * d, dtype=r.dtype)
    buf[:n] = r
    return np.cumsum(buf.reshape(m, d), axis=0,
                     dtype=r.dtype).reshape(-1)[:n].view(dtype).copy()
