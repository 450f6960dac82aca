"""SZ-style error-bounded lossy codec, vectorized.

Represents the SZ compressor the paper surveys (Di & Cappello, IPDPS
2016) in Table I: *error-bounded* lossy compression, where every
reconstructed value is within a user-set absolute bound of the
original — the alternative accuracy contract to ZFP's fixed rate.

Real SZ chains a Lorenzo predictor through previously *decompressed*
values, which is inherently sequential.  This implementation keeps the
SZ contract and adaptivity with a vectorizable design (documented
substitution):

* values are grouped in blocks of 64;
* each block stores its endpoints exactly and predicts interior values
  by the straight line between them (a degenerate 1-D Lorenzo);
* residuals are quantized to ``round(r / (2*eb))`` so reconstruction
  error is <= ``eb`` by construction;
* each block's codes are bit-packed at the smallest width that fits
  the block's largest |code| (4-bit width field), which plays the role
  of SZ's entropy stage: smooth blocks cost 2-4 bits/value;
* codes that exceed the widest representable range mark the value an
  *outlier*, stored exactly (bitmap + raw floats), like SZ's
  unpredictable data.

Payload layout (little-endian): per-block width nibbles, block
endpoint pairs (f32/f64), packed codes, outlier bitmap, outlier raw
values.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.compression.zfp import pack_block_fields, unpack_block_fields
from repro.errors import CompressionError

__all__ = ["SzCompressor"]

_BLOCK = 64
_MAX_WIDTH = 15  # width nibble 0..15; 15 -> up to 2^14 magnitude codes


class SzCompressor(Compressor):
    """Error-bounded lossy codec with block-adaptive code widths.

    Parameters
    ----------
    error_bound:
        Absolute error bound ``eb``: every reconstructed value differs
        from the original by at most ``eb``.
    """

    name = "sz"
    lossless = False
    gpu_supported = True
    single_precision = True
    double_precision = True
    high_throughput = True
    mpi_support = False
    header_field = "error_bound"

    def __init__(self, error_bound: float = 1e-3):
        if not (error_bound > 0) or not np.isfinite(error_bound):
            raise CompressionError(f"error_bound must be finite and > 0, got {error_bound}")
        self.error_bound = float(error_bound)

    def header_param(self) -> int:
        """The bound's float32 bit pattern."""
        return struct.unpack("<I", struct.pack("<f", self.error_bound))[0]

    @classmethod
    def params_from_header(cls, param: int) -> dict:
        return {"error_bound": struct.unpack("<f", struct.pack("<I", param))[0]}

    def compress(self, data: np.ndarray) -> CompressedData:
        data = self._check_input(data)
        n = data.size
        if n and not np.isfinite(data).all():
            raise CompressionError("sz requires finite values")
        if n == 0:
            return CompressedData(
                algorithm=self.name, payload=np.empty(0, np.uint8), n_elements=0,
                dtype=data.dtype, params={"error_bound": self.error_bound},
                meta={"compressed_bytes": 0},
            )
        eb = self.error_bound
        nblocks = -(-n // _BLOCK)
        padded = np.zeros(nblocks * _BLOCK, dtype=np.float64)
        padded[:n] = data.astype(np.float64, copy=False)
        if n % _BLOCK:
            padded[n:] = padded[n - 1]  # repeat the tail value
        blocks = padded.reshape(nblocks, _BLOCK)

        first = blocks[:, 0]
        last = blocks[:, -1]
        t = np.linspace(0.0, 1.0, _BLOCK)
        line = first[:, None] + (last - first)[:, None] * t[None, :]
        q = np.rint((blocks - line) / (2.0 * eb)).astype(np.int64)

        # Outliers: codes too large for the widest field, plus any value
        # whose reconstruction — *after casting to the output dtype* —
        # would still violate the bound (cast rounding can add half an
        # ulp on top of the quantization error).
        limit = 1 << (_MAX_WIDTH - 1)
        outlier = np.abs(q) >= limit
        q[outlier] = 0
        recon = (line + q.astype(np.float64) * 2.0 * eb).astype(data.dtype)
        viol = np.zeros_like(outlier)
        viol.reshape(-1)[:n] = (
            np.abs(data.astype(np.float64) - recon.reshape(-1)[:n].astype(np.float64)) > eb
        )
        outlier |= viol
        q[outlier] = 0

        # Zigzag per block and the minimal width per block.
        zz = ((q << 1) ^ (q >> 63)).astype(np.uint64)
        maxcode = zz.max(axis=1)
        widths = np.zeros(nblocks, dtype=np.uint8)
        nz = maxcode > 0
        widths[nz] = np.floor(np.log2(maxcode[nz].astype(np.float64))).astype(np.uint8) + 1
        widths = np.minimum(widths, _MAX_WIDTH)

        # Pack codes: per block, _BLOCK values at widths[b] bits.
        # Build a global bit matrix (nblocks, _BLOCK, width_b) — widths
        # differ per block, so emit via a per-width grouping.
        chunks: list[np.ndarray] = []
        header_nibbles = widths
        for w in range(1, _MAX_WIDTH + 1):
            sel = widths == w
            if not sel.any():
                continue
            sub = zz[sel].reshape(-1)  # every value is one w-bit field
            chunks.append((w, pack_block_fields([sub], [w], w)))
        # Reassemble in block order at decode time via widths; store
        # each width-group contiguously prefixed by nothing (order is
        # derivable from the widths array).
        code_bytes = (
            np.concatenate([c for _, c in sorted(chunks, key=lambda x: x[0])])
            if chunks else np.empty(0, np.uint8)
        )

        itemsize = data.dtype.itemsize
        nib = header_nibbles
        nib_padded = nib if nib.size % 2 == 0 else np.concatenate([nib, [np.uint8(0)]])
        nib_bytes = (nib_padded[0::2] << 4) | nib_padded[1::2]

        endpoints = np.stack([first, last], axis=1).astype(data.dtype).view(np.uint8).reshape(-1)
        out_bitmap = np.packbits(outlier.reshape(-1)[:n])
        out_vals = data[outlier.reshape(-1)[:n]].view(np.uint8)

        payload = np.concatenate([
            nib_bytes.astype(np.uint8), endpoints, code_bytes,
            out_bitmap, np.asarray(out_vals, dtype=np.uint8).reshape(-1),
        ])
        return CompressedData(
            algorithm=self.name, payload=payload, n_elements=n, dtype=data.dtype,
            params={"error_bound": self.error_bound},
            meta={"compressed_bytes": int(payload.nbytes)},
        )

    def decompress(self, comp: CompressedData) -> np.ndarray:
        self._check_payload(comp)
        eb = float(comp.params.get("error_bound", self.error_bound))
        n = comp.n_elements
        dtype = comp.dtype
        itemsize = dtype.itemsize
        nblocks = -(-n // _BLOCK)
        payload = comp.payload
        nib_len = -(-nblocks // 2)
        bm_len = -(-n // 8)
        # The size is data-dependent twice over, so it is settled in
        # steps that each read only what the step before proved
        # present: the width nibbles size the code groups, which place
        # the outlier bitmap, which counts the outlier values.  (Cut
        # short, ``need`` is a lower bound — still more than there is.)
        need = nib_len + nblocks * 2 * itemsize + bm_len
        if payload.size >= need:
            nib_bytes = payload[:nib_len]
            widths = np.empty(nib_len * 2, dtype=np.uint8)
            widths[0::2] = nib_bytes >> 4
            widths[1::2] = nib_bytes & 0x0F
            widths = widths[:nblocks]
            per_width = np.bincount(widths, minlength=_MAX_WIDTH + 1)
            group_bytes = [-(-int(m) * _BLOCK * w // 8)
                           for w, m in enumerate(per_width)]
            need += sum(group_bytes)
            if payload.size >= need:
                out_bitmap = np.unpackbits(
                    payload[need - bm_len: need])[:n].view(np.bool_)
                need += int(np.count_nonzero(out_bitmap)) * itemsize
        if payload.size != need:
            raise CompressionError(
                f"sz payload size mismatch: expected {need} bytes, "
                f"have {payload.size}"
            )
        if n == 0:
            return np.empty(0, dtype=dtype)

        pos = nib_len
        endpoints = payload[pos:pos + nblocks * 2 * itemsize].view(dtype).reshape(nblocks, 2)
        pos += nblocks * 2 * itemsize

        zz = np.zeros((nblocks, _BLOCK), dtype=np.uint64)
        for w in range(1, _MAX_WIDTH + 1):
            m = int(per_width[w])
            if not m:
                continue
            raw = payload[pos:pos + group_bytes[w]]
            pos += group_bytes[w]
            vals = unpack_block_fields(raw, [w], w, m * _BLOCK)[0]
            zz[widths == w] = vals.reshape(m, _BLOCK)
        q = ((zz >> np.uint64(1)).astype(np.int64)) ^ -(zz & np.uint64(1)).astype(np.int64)

        # A corrupted stream can carry NaN/inf endpoints and absurd
        # codes; let them flow through silently — the integrity check
        # rejects the result (as in ZFP's decode).
        with np.errstate(invalid="ignore", over="ignore"):
            first = endpoints[:, 0].astype(np.float64)
            last = endpoints[:, 1].astype(np.float64)
            t = np.linspace(0.0, 1.0, _BLOCK)
            line = first[:, None] + (last - first)[:, None] * t[None, :]
            vals = (line + q.astype(np.float64) * 2.0 * eb).reshape(-1)[:n].astype(dtype)

        vals[out_bitmap] = payload[pos + bm_len:].view(dtype)
        return vals

    def max_abs_error(self) -> float:
        """The guaranteed bound (outliers and endpoints are exact)."""
        return self.error_bound
