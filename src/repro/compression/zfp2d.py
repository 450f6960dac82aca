"""ZFP 2-D fixed-rate mode (4x4 blocks, separable lifting).

The paper uses ZFP's 1-D array type; upstream ZFP also offers 2-D/3-D
modes where each d-dimensional block holds ``4^d`` values ("each
d-dimensional array value is deconstructed into 4^d independent
blocks", Section II).  The 2-D mode decorrelates along both axes, so
smooth *images/fields* (e.g. the Dask chunks of Section VII-B) get
markedly lower error at the same rate than the 1-D codec.

Pipeline per 4x4 block:

1. shared ``emax`` (12-bit biased field, as in the 1-D codec);
2. fixed-point quantization at ``2^(30 - emax)``;
3. separable lifting: the 1-D transform over rows, then over columns;
4. negabinary conversion;
5. per-coefficient MSB truncation with a static skew by *sequency*
   (i + j of the coefficient's position — the 2-D analogue of the 1-D
   codec's [+3, +1, -1, -3] schedule).

Block budget = ``16 * rate`` bits; compressed size is exactly
predictable, like the 1-D mode.  Float32 only (the evaluation's
precision).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.compression.zfp import (
    _lift4_fwd, _lift4_inv, pack_block_fields, unpack_block_fields,
)
from repro.errors import CompressionError

__all__ = ["Zfp2dCompressor", "plan_bit_allocation_2d"]

_EXP_BITS = 12
_EXP_BIAS = 2048
_W = 32  # float32 only


def _sequency_order() -> np.ndarray:
    """Coefficient indices of a flattened 4x4 block ordered by i+j."""
    coords = [(i, j) for i in range(4) for j in range(4)]
    return np.array(sorted(range(16), key=lambda k: (sum(coords[k]), coords[k])))


_ORDER = _sequency_order()


def plan_bit_allocation_2d(rate: int) -> np.ndarray:
    """Distribute ``16*rate - 12`` bits over 16 coefficients, more to
    low-sequency ones, in flattened (row-major) block order."""
    budget = 16 * rate - _EXP_BITS
    if budget < 0:
        raise CompressionError(f"rate {rate} too small for the 2-D block budget")
    base = budget // 16
    rem = budget % 16
    # Skew: +4 for sequency 0 down to -3 for the highest, rescaled to
    # keep the sum exact.
    skew = np.linspace(4, -4, 16)
    kept = np.full(16, base, dtype=np.int64) + np.round(skew).astype(np.int64)
    kept[0] += budget - kept.sum()
    # Clamp to [0, 32] pushing the excess toward the middle.
    for _ in range(16):
        over = kept - np.clip(kept, 0, _W)
        if not over.any():
            break
        kept = np.clip(kept, 0, _W)
        spill = int(over.sum())
        room = _W - kept if spill > 0 else kept
        for idx in np.argsort(-room):
            take = int(np.clip(spill, -int(kept[idx]), int(_W - kept[idx])))
            kept[idx] += take
            spill -= take
            if spill == 0:
                break
    if kept.sum() != budget:
        raise CompressionError("internal: 2-D bit allocation mismatch")
    # Give the budget to coefficients in sequency order.
    out = np.empty(16, dtype=np.int64)
    out[_ORDER] = np.sort(kept)[::-1]
    return out


class Zfp2dCompressor(Compressor):
    """Fixed-rate 2-D codec over 4x4 blocks of a (rows, cols) array.

    ``compress`` takes a 2-D float32 array; row/column counts are padded
    to multiples of 4 internally (edge padding replicates the border).
    The original shape travels in ``params``.
    """

    name = "zfp2d"
    lossless = False
    gpu_supported = True
    single_precision = True
    double_precision = False
    high_throughput = True
    mpi_support = False
    supported_dtypes = (np.float32,)

    def __init__(self, rate: int = 8):
        rate = int(rate)
        if rate < 1 or rate > 32:
            raise CompressionError(f"rate must be in [1, 32], got {rate}")
        self.rate = rate

    def expected_compressed_bytes(self, n_elements: int, itemsize: int) -> None:
        return None  # depends on the 2-D shape (padding), not n alone

    def _blocks(self, rows: int, cols: int) -> tuple[int, int]:
        return -(-rows // 4), -(-cols // 4)

    def compress(self, data: np.ndarray) -> CompressedData:
        if not isinstance(data, np.ndarray) or data.ndim != 2:
            raise CompressionError("zfp2d expects a 2-D array")
        if data.dtype != np.float32:
            raise CompressionError("zfp2d supports float32 only")
        if data.size and not np.isfinite(data).all():
            raise CompressionError("zfp2d requires finite values")
        rows, cols = data.shape
        if rows == 0 or cols == 0:
            return CompressedData(
                algorithm=self.name, payload=np.empty(0, np.uint8),
                n_elements=0, dtype=np.float32,
                params={"rate": self.rate, "rows": rows, "cols": cols},
            )
        br, bc = self._blocks(rows, cols)
        padded = np.pad(data.astype(np.float64),
                        ((0, br * 4 - rows), (0, bc * 4 - cols)), mode="edge")
        # (nblocks, 4, 4)
        blocks = (padded.reshape(br, 4, bc, 4).transpose(0, 2, 1, 3)
                  .reshape(br * bc, 4, 4))
        nblocks = blocks.shape[0]

        flat = blocks.reshape(nblocks, 16)
        nz = flat != 0.0
        nonzero = np.any(nz, axis=1)
        _, exps = np.frexp(flat)
        emax = np.where(
            nonzero, np.max(np.where(nz, exps, np.int32(-(1 << 20))), axis=1),
            np.int32(0))
        q = np.rint(np.ldexp(blocks, (30 - emax)[:, None, None])).astype(np.int64)

        # Separable lifting, in place: along rows (last axis), then
        # along columns (middle axis).
        _lift4_fwd(q[:, :, 0], q[:, :, 1], q[:, :, 2], q[:, :, 3])
        _lift4_fwd(q[:, 0, :], q[:, 1, :], q[:, 2, :], q[:, 3, :])

        # Negabinary at the native 32-bit width (the truncating cast is
        # the mask; addition wraps mod 2^32).
        nb = np.uint32(0xAAAAAAAA)
        u = q.reshape(nblocks, 16).astype(np.uint32)
        u += nb
        u ^= nb
        # Coefficient-major copy so field extraction reads contiguous rows.
        ut = np.ascontiguousarray(u.T)

        kept = plan_bit_allocation_2d(self.rate)
        block_bits = 16 * self.rate  # always a multiple of 8: pure byte path
        exp_field = np.where(nonzero, emax + _EXP_BIAS, 0).astype(np.uint32)
        fields = [exp_field]
        widths = [_EXP_BITS]
        for c in range(16):
            k = int(kept[c])
            fields.append(ut[c] >> np.uint32(_W - k) if k
                          else np.zeros(nblocks, dtype=np.uint32))
            widths.append(k)
        payload = pack_block_fields(fields, widths, block_bits)
        return CompressedData(
            algorithm=self.name, payload=payload, n_elements=rows * cols,
            dtype=np.float32,
            params={"rate": self.rate, "rows": rows, "cols": cols},
            meta={"compressed_bytes": int(payload.nbytes)},
        )

    def decompress(self, comp: CompressedData) -> np.ndarray:
        self._check_payload(comp)
        rate = int(comp.params.get("rate", self.rate))
        rows = int(comp.params["rows"])
        cols = int(comp.params["cols"])
        br, bc = self._blocks(rows, cols)
        nblocks = br * bc
        block_bits = 16 * rate
        total_bits = nblocks * block_bits
        need = -(-total_bits // 8)
        if comp.payload.size != need:
            raise CompressionError(
                f"zfp2d payload size mismatch: expected {need} bytes, "
                f"have {comp.payload.size}"
            )
        if nblocks == 0:
            return np.empty((rows, cols), dtype=np.float32)
        kept = plan_bit_allocation_2d(rate)
        widths = [_EXP_BITS] + [int(k) for k in kept]
        decoded = unpack_block_fields(comp.payload, widths, block_bits, nblocks)
        exp_field = decoded[0].astype(np.int32)
        nonzero = exp_field != 0
        emax = np.where(nonzero, exp_field - _EXP_BIAS, np.int32(0))

        # Coefficient-major (16, nblocks) layout; rows are contiguous.
        u = np.zeros((16, nblocks), dtype=np.uint32)
        for c in range(16):
            k = int(kept[c])
            if k:
                f = decoded[1 + c]
                if f.dtype != np.uint32:
                    f = f.astype(np.uint32, copy=False)
                u[c] = f << np.uint32(_W - k)
        nb = np.uint32(0xAAAAAAAA)
        u ^= nb
        u -= nb
        # The int32 view is already sign-extended two's complement;
        # widen once for the exact inverse lift.
        coeffs = u.view(np.int32).astype(np.int64)

        # (i, j, nblocks) block layout: inverse lift along columns
        # (axis 0), then along rows (axis 1), in place.
        q = coeffs.reshape(4, 4, nblocks)
        _lift4_inv(q[0], q[1], q[2], q[3])
        _lift4_inv(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
        vals = np.ldexp(q.astype(np.float64), (emax - 30)[None, None, :])
        vals[:, :, ~nonzero] = 0.0
        full = (vals.transpose(2, 0, 1).reshape(br, bc, 4, 4)
                .transpose(0, 2, 1, 3).reshape(br * 4, bc * 4))
        return full[:rows, :cols].astype(np.float32)
