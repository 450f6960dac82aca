"""ZFP — fixed-rate lossy floating-point codec, vectorized.

Reimplementation of the CUDA-enabled fixed-rate mode of ZFP (Lindstrom,
*Fixed-Rate Compressed Floating-Point Arrays*, TVCG 2014) that the
paper integrates: the 1-D array type, where every 4-value block is
compressed to exactly ``4 * rate`` bits.

Per-block pipeline:

1. **Shared exponent**: the block's maximum binary exponent ``emax`` is
   stored in a 12-bit biased field (bias 2048; field value 0 flags an
   all-zero block).  It is the exponent of the block's largest
   magnitude: one ``frexp`` per block, not one per value.
2. **Fixed-point conversion**: values are scaled by ``2^(30 - emax)``
   (``2^(62 - emax)`` for doubles) and rounded to integers.
3. **Decorrelating lifting transform** — zfp's 4-point integer
   transform.  Like upstream zfp, the transform pair is *near*-
   invertible (the ``>> 1`` steps drop one bit), which is subsumed by
   the codec's overall error bound.
4. **Negabinary conversion** so that truncating low bits yields a small,
   sign-independent error.
5. **Bit-plane truncation**: the remaining ``4*rate - 12`` bits of the
   block budget are distributed over the four coefficients with a
   static skew (+3, +1, -1, -3 around the mean) that mimics the energy
   compaction upstream zfp realises through group-testing embedded
   coding (a deliberate substitution — group testing is a sequential
   per-block variable-length code that does not vectorize; the skew
   favours the low-frequency coefficients the same way the embedded
   stream does on smooth data).

**Kernel shape.**  Both directions run as one loop over *tiles* of
``_TILE_BYTES`` of input: every stage is a numpy pass over a tile that
stays in cache, through scratch buffers allocated once per call, and
each tile's stream is written straight into (read straight out of) its
slice of the payload — a tile is a multiple of 8 blocks, so tile
streams are byte-aligned at every rate.  Nothing message-sized exists
besides the input and the output.

Encode works at the data's own width: float32 stays
float32/int32/uint32 end to end (the scaled values are integers below
``2^30``, exact in float32, and the forward lift cannot leave int32 —
upstream zfp's two-guard-bit argument; see docs/performance.md).
Decode keeps a 64-bit inverse lift and a float64 ``ldexp`` for both
precisions: truncated coefficients can push the reconstruction past
``2^31`` and the inverse's ``>> 1`` steps are not ring operations, so
an int32 inverse lift would change decoded values.

Compressed size is **exactly predictable** from the element count —
the property the paper's framework exploits to skip the device-to-host
compressed-size copy that MPC needs.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.errors import CompressionError

__all__ = ["ZfpCompressor", "forward_lift", "inverse_lift", "plan_bit_allocation"]

_EXP_BITS = 12
_EXP_BIAS = 2048  # covers float32 and float64 frexp exponent ranges

#: Input bytes one tile of the compress/decompress loops covers (16 Ki
#: float32 blocks, 8 Ki float64 blocks — a multiple of 8 blocks, so a
#: tile's stream starts and ends on a byte at every rate).  Chosen from
#: the sweep in docs/performance.md ("Codec kernels"): 256 KiB - 1 MiB
#: is a flat optimum, where a tile's scratch stays in L2.
_TILE_BYTES = 256 * 1024


def _tile_blocks(itemsize: int, nblocks: int) -> int:
    """Blocks per tile of 4 ``itemsize``-byte values, capped at
    ``nblocks`` (at least 1, so an empty message still has a step)."""
    return min(_TILE_BYTES // (4 * itemsize), nblocks) or 1


def _tile_scratch(tile: int, *dtypes) -> list[np.ndarray]:
    """One ``(4, tile)`` scratch array per dtype (widest first), carved
    from a single allocation.  Separate buffers, freed together, add
    up past malloc's trim threshold, and the next call then page-faults
    its scratch back in; one block is one hole the next call reuses."""
    sizes = [4 * tile * np.dtype(dt).itemsize for dt in dtypes]
    arena = np.empty(sum(sizes), dtype=np.uint8)
    offsets = np.cumsum([0] + sizes)
    return [arena[o: o + size].view(dt).reshape(4, tile)
            for o, size, dt in zip(offsets, sizes, dtypes)]


def _lane_params(block_bits: int):
    """Lane word size for a block: 32-bit lanes when a block fits one
    (halves the memory traffic of every lane op), 64-bit otherwise."""
    if block_bits <= 32:
        return 32, np.uint32, ">u4"
    return 64, np.uint64, ">u8"


def pack_block_fields(fields, widths, block_bits: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Concatenate per-block bit fields into one MSB-first byte stream.

    ``fields[i]`` is a ``(nblocks,)`` unsigned array holding the
    right-aligned value of the i-th field (``< 2**widths[i]``); the
    fields of one block occupy ``block_bits`` consecutive bits and the
    blocks are packed back to back (blocks straddle byte boundaries when
    ``block_bits`` is not a multiple of 8, exactly like ``packbits`` on
    the flattened bit matrix).

    The assembly is pure integer lane arithmetic: each block's bits live
    in ``ceil(block_bits/W)`` big-endian W-bit lanes (W = 32 or 64), and
    a field lands in one lane — or two, when it straddles a lane
    boundary — via shifts.  Byte-aligned block sizes never touch
    ``unpackbits`` at all.

    With ``out`` (a contiguous uint8 array of exactly the stream's
    size) the stream is written there instead of into a new array.
    A zero-width field is never read and may be ``None``.
    """
    nblocks = fields[0].shape[0]
    W, ldt, bedt = _lane_params(block_bits)
    shift = int(W).bit_length() - 1
    nlanes = -(-block_bits // W)
    lanes = np.zeros((nblocks, nlanes), dtype=ldt)
    off = 0
    for v, k in zip(fields, widths):
        if k:
            if v.dtype != ldt:
                v = v.astype(ldt, copy=False)
            end = off + k
            l0 = off >> shift
            e0 = end - (l0 << shift)  # field end, relative to lane l0
            if e0 <= W:
                lanes[:, l0] |= v << ldt(W - e0)
            else:
                lanes[:, l0] |= v >> ldt(e0 - W)
                lanes[:, l0 + 1] |= v << ldt(2 * W - e0)
        off += k
    lane_bytes = nlanes * (W // 8)
    if out is None:
        out = np.empty(-(-nblocks * block_bits // 8), dtype=np.uint8)
    if block_bits == nlanes * W:
        # Lanes exactly cover the block: the byteswapped lanes ARE the
        # stream, no per-block slicing needed.
        out.view(bedt).reshape(nblocks, nlanes)[...] = lanes
        return out
    per_block = lanes.astype(bedt).view(np.uint8).reshape(nblocks, lane_bytes)
    if block_bits % 8 == 0:
        out.reshape(nblocks, block_bits // 8)[...] = per_block[:, : block_bits // 8]
        return out
    nbytes = -(-block_bits // 8)
    bits = np.unpackbits(
        np.ascontiguousarray(per_block[:, :nbytes]), axis=1
    )[:, :block_bits]
    out[...] = np.packbits(bits.reshape(-1))
    return out


def unpack_block_fields(payload: np.ndarray, widths, block_bits: int,
                        nblocks: int) -> list[np.ndarray]:
    """Inverse of :func:`pack_block_fields` — extract every field as a
    right-aligned ``(nblocks,)`` unsigned array (uint32 lanes when a
    block fits 32 bits, else uint64)."""
    W, ldt, bedt = _lane_params(block_bits)
    shift = int(W).bit_length() - 1
    nlanes = -(-block_bits // W)
    lane_bytes = nlanes * (W // 8)
    if block_bits == nlanes * W:
        raw = payload[: nblocks * lane_bytes].reshape(nblocks, lane_bytes)
    elif block_bits % 8 == 0:
        nb = block_bits // 8
        raw = np.zeros((nblocks, lane_bytes), dtype=np.uint8)
        raw[:, :nb] = payload[: nblocks * nb].reshape(nblocks, nb)
    else:
        total_bits = nblocks * block_bits
        bits = np.unpackbits(payload[: -(-total_bits // 8)])[:total_bits]
        bitmat = np.zeros((nblocks, nlanes * W), dtype=np.uint8)
        bitmat[:, :block_bits] = bits.reshape(nblocks, block_bits)
        raw = np.packbits(bitmat, axis=1)
    lanes = raw.view(bedt).reshape(nblocks, nlanes).astype(ldt)
    full = ldt(np.iinfo(ldt).max)
    fields: list[np.ndarray] = []
    off = 0
    for k in widths:
        if k:
            end = off + k
            l0 = off >> shift
            e0 = end - (l0 << shift)
            mask = full if k >= W else ldt((1 << k) - 1)
            if e0 <= W:
                v = (lanes[:, l0] >> ldt(W - e0)) & mask
            else:
                v = ((lanes[:, l0] << ldt(e0 - W))
                     | (lanes[:, l0 + 1] >> ldt(2 * W - e0))) & mask
        else:
            v = np.zeros(nblocks, dtype=ldt)
        fields.append(v)
        off += k
    return fields


def _lift4_fwd(x, y, z, w) -> None:
    """In-place forward 4-point lifting over four same-shape int64
    arrays (one per coefficient position) — no temporaries beyond the
    elementwise ops."""
    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    w += y >> 1; y -= w >> 1


def _lift4_inv(x, y, z, w) -> None:
    """In-place inverse of :func:`_lift4_fwd`."""
    y += w >> 1; w -= y >> 1
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w


def forward_lift(q: np.ndarray) -> np.ndarray:
    """zfp's forward 4-point decorrelating transform.

    ``q`` has shape (nblocks, 4), signed integer; returns transformed
    coefficients in *sequency* order (DC first).  Arithmetic is int64 to
    keep intermediates exact.
    """
    q = q.astype(np.int64, copy=True)
    _lift4_fwd(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
    return q


def inverse_lift(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_lift` (exact up to the ``>>1`` bit
    drops, matching upstream zfp)."""
    c = c.astype(np.int64, copy=True)
    _lift4_inv(c[:, 0], c[:, 1], c[:, 2], c[:, 3])
    return c


def plan_bit_allocation(rate: int, width: int) -> list[int]:
    """Distribute the per-block coefficient bit budget.

    Returns ``kept[c]`` — how many MSBs of coefficient ``c``'s
    ``width``-bit negabinary representation are stored.  The budget is
    ``4*rate - 12`` (12 bits go to the shared exponent); the static
    skew gives low-frequency coefficients more planes.
    """
    budget = 4 * rate - _EXP_BITS
    if budget < 0:
        raise CompressionError(f"rate {rate} too small: needs >= {-(-_EXP_BITS // 4)} bits/value")
    base = budget // 4
    kept = [base + 3, base + 1, base - 1, base - 3]
    kept[0] += budget % 4
    # Clamp into [0, width], pushing overflow/underflow to neighbours
    # so that sum(kept) == budget always holds.
    for _ in range(8):
        excess = 0
        for c in range(4):
            if kept[c] > width:
                excess += kept[c] - width
                kept[c] = width
            elif kept[c] < 0:
                excess += kept[c]
                kept[c] = 0
        if excess == 0:
            break
        for c in range(4):
            room = width - kept[c] if excess > 0 else kept[c]
            take = min(abs(excess), room) * (1 if excess > 0 else -1)
            kept[c] += take
            excess -= take
            if excess == 0:
                break
    if sum(kept) != budget:
        raise CompressionError(f"internal: bit allocation {kept} != budget {budget}")
    return kept


class ZfpCompressor(Compressor):
    """Fixed-rate lossy codec.

    Parameters
    ----------
    rate:
        Compressed bits per value.  The paper evaluates 4, 8 and 16 for
        single precision (compression ratios 8x, 4x and 2x).  Valid
        range: 3..32 for float32, 3..64 for float64 (>= 3 so the 12-bit
        exponent field fits the 4-value block budget).

    Notes
    -----
    Finite values only: NaN/Inf are rejected up front (upstream zfp has
    the same restriction in fixed-rate mode).
    """

    name = "zfp"
    lossless = False
    gpu_supported = True
    single_precision = True
    double_precision = True
    high_throughput = True
    mpi_support = False  # the naive library; ZFP-OPT flips this
    streamable = True  # partitions are independent 4-value block groups
    host_setup = True  # zfp_stream / zfp_field + get_max_grid_dims
    header_field = "rate"

    def __init__(self, rate: int = 16):
        rate = int(rate)
        if rate < 3 or rate > 64:
            raise CompressionError(f"rate must be in [3, 64], got {rate}")
        self.rate = rate

    # -- size predictability (the property ZFP-OPT exploits) ------------
    def expected_compressed_bytes(self, n_elements: int, itemsize: int) -> int:
        nblocks = -(-n_elements // 4)
        total_bits = nblocks * 4 * self.rate
        return -(-total_bits // 8)

    # -- internals -------------------------------------------------------
    @staticmethod
    def _width_for(dtype: np.dtype) -> int:
        return 32 if dtype.itemsize == 4 else 64

    def compress(self, data: np.ndarray) -> CompressedData:
        data = self._check_input(data)
        width = self._width_for(data.dtype)
        rate = self.rate
        if rate > width:
            raise CompressionError(f"rate {rate} exceeds word width {width}")
        n = data.size
        nblocks = -(-n // 4)
        nfull = n // 4
        block_bits = 4 * rate
        payload = np.empty(self.expected_compressed_bytes(n, data.itemsize),
                           dtype=np.uint8)
        kept = plan_bit_allocation(rate, width)
        widths = [_EXP_BITS] + kept
        # Everything at the data's own width: float32 -> int32 -> uint32.
        idt, udt = (np.int32, np.uint32) if width == 32 else (np.int64, np.uint64)
        negabinary = udt(0xAAAAAAAAAAAAAAAA >> (64 - width))
        drop = [udt(width - k) for k in kept]
        headroom = np.int32(width - 2)  # 30 for singles, 62 for doubles
        # Tile scratch, allocated once.  Coefficient-major layout:
        # vals[c] is the c-th value of every block of the tile, a
        # contiguous row, so every stage is a whole-row op.
        tile = _tile_blocks(data.itemsize, nblocks)
        vals, mags, ints, flds = _tile_scratch(tile, data.dtype, data.dtype, idt, udt)
        for s in range(0, nblocks, tile):
            e = min(s + tile, nblocks)
            nb = e - s
            v = vals[:, :nb]
            whole = min(e, nfull) - s  # blocks of the tile with all 4 values
            blocks = data[4 * s: 4 * (s + whole)].reshape(whole, 4)
            for c in range(4):  # row by row: twice as fast as one .T copy
                v[c, :whole] = blocks[:, c]
            if whole != nb:  # the ragged last block, zero-padded
                v[:, whole] = 0.0
                v[: n - 4 * nfull, whole] = data[4 * nfull:]

            # Block maximum magnitude -> the shared exponent.  NaN and
            # inf propagate through the maxima, so this is also the
            # finiteness check.
            a = np.abs(v, out=mags[:, :nb])
            m = np.maximum(a[0], a[1], out=a[0])
            np.maximum(m, a[2], out=m)
            np.maximum(m, a[3], out=m)
            if not np.isfinite(m.max()):
                raise CompressionError("zfp fixed-rate mode requires finite values")
            _, emax = np.frexp(m)  # frexp(0) has exponent 0

            np.ldexp(v, (headroom - emax)[None, :], out=v)
            np.rint(v, out=v)
            q = ints[:, :nb]
            np.copyto(q, v, casting="unsafe")  # integers below 2^headroom: exact
            _lift4_fwd(q[0], q[1], q[2], q[3])

            # Negabinary in place on the unsigned view: addition wraps
            # mod 2^width, which IS the mask step.
            u = q.view(udt)
            u += negabinary
            u ^= negabinary

            emax += _EXP_BIAS
            emax[m == 0] = 0  # field value 0 flags an all-zero block
            fields = [emax] + [
                np.right_shift(u[c], drop[c], out=flds[c, :nb]) if kept[c] else None
                for c in range(4)]
            pack_block_fields(fields, widths, block_bits,
                              out=payload[s * block_bits // 8:
                                          -(-e * block_bits // 8)])
        return CompressedData(
            algorithm=self.name,
            payload=payload,
            n_elements=n,
            dtype=data.dtype,
            params={"rate": rate},
            meta={"compressed_bytes": int(payload.nbytes)},
        )

    def decompress(self, comp: CompressedData) -> np.ndarray:
        self._check_payload(comp)
        rate = int(comp.params.get("rate", self.rate))
        if rate != self.rate:
            return ZfpCompressor(rate).decompress(comp)
        n = comp.n_elements
        dtype = comp.dtype
        need = self.expected_compressed_bytes(n, dtype.itemsize)
        if comp.payload.size != need:
            raise CompressionError(
                f"zfp payload size mismatch: expected {need} bytes, "
                f"have {comp.payload.size}"
            )
        width = self._width_for(dtype)
        nblocks = -(-n // 4)
        nfull = n // 4
        block_bits = 4 * rate
        kept = plan_bit_allocation(rate, width)
        widths = [_EXP_BITS] + kept
        udt = np.uint32 if width == 32 else np.uint64
        negabinary = udt(0xAAAAAAAAAAAAAAAA >> (64 - width))
        shift = _EXP_BIAS + width - 2  # exponent bias + fixed-point headroom
        out = np.empty(n, dtype=dtype)
        # Tile scratch, coefficient-major as in compress.  The inverse
        # lift and the rescale stay 64-bit for both precisions (see the
        # module docstring); for doubles the lanes are int64 already.
        tile = _tile_blocks(dtype.itemsize, nblocks)
        if width == 64:
            reals, wide = _tile_scratch(tile, np.float64, np.int64)
            lanes = wide.view(udt)
        else:
            reals, wide, lanes = _tile_scratch(tile, np.float64, np.int64, udt)
        # A corrupted stream can carry absurd exponents; let them
        # saturate to inf silently — the integrity check rejects them.
        with np.errstate(over="ignore"):
            for s in range(0, nblocks, tile):
                e = min(s + tile, nblocks)
                nb = e - s
                decoded = unpack_block_fields(
                    comp.payload[s * block_bits // 8: -(-e * block_bits // 8)],
                    widths, block_bits, nb)
                u = lanes[:, :nb]
                for c in range(4):
                    k = kept[c]
                    if k:  # fields come as uint32 or uint64 lanes
                        np.left_shift(decoded[1 + c], udt(width - k),
                                      out=u[c], dtype=udt)
                    else:
                        u[c] = 0

                # Negabinary decode in place; subtraction wraps mod
                # 2^width, so no mask pass is needed, and the signed
                # view of the word-width lanes is already sign-extended
                # two's complement.
                u ^= negabinary
                u -= negabinary
                coeffs = wide[:, :nb]
                if width == 32:
                    np.copyto(coeffs, u.view(np.int32))
                _lift4_inv(coeffs[0], coeffs[1], coeffs[2], coeffs[3])

                vals = reals[:, :nb]
                np.copyto(vals, coeffs)
                exp_field = decoded[0].astype(np.int32)
                np.ldexp(vals, (exp_field - shift)[None, :], out=vals)
                zero_block = exp_field == 0
                if zero_block.any():
                    vals[:, zero_block] = 0.0

                whole = min(e, nfull) - s
                blocks = out[4 * s: 4 * (s + whole)].reshape(whole, 4)
                for c in range(4):  # row by row, rounding to dtype
                    blocks[:, c] = vals[c, :whole]
                if whole != nb:
                    out[4 * nfull:] = vals[: n - 4 * nfull, whole]
        return out

    def max_abs_error_bound(self, data: np.ndarray) -> float:
        """A conservative per-array absolute error bound.

        Truncation of coefficient ``c`` to ``kept[c]`` negabinary MSBs
        costs at most ``2^(width - kept[c] + 1)`` quanta; the inverse
        transform mixes coefficients with unit gain and adds a few
        quanta of its own.  One quantum is ``2^(emax - headroom)``.
        """
        data = self._check_input(data)
        if data.size == 0:
            return 0.0
        width = self._width_for(data.dtype)
        kept = plan_bit_allocation(self.rate, width)
        _, exps = np.frexp(data[data != 0.0].astype(np.float64))
        emax = int(exps.max()) if exps.size else 0
        worst_drop = max(width - k for k in kept)
        quanta = 2.0 ** (worst_drop + 3)  # transform mixing safety margin
        return quanta * 2.0 ** (emax - (width - 2))
