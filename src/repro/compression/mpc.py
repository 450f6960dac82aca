"""MPC — Massively Parallel Compression (lossless), vectorized.

Faithful reimplementation of the MPC pipeline (Yang, Mukka, Hesaaraki,
Burtscher — *MPC: A Massively Parallel Compression Algorithm for
Scientific Data*, IEEE Cluster 2015) used by the paper as its lossless
codec:

1. **LNV subtraction** ("last n-th value"): reinterpret each float as
   an unsigned word and subtract the word ``dimensionality`` positions
   earlier (modulo 2^w).  For multi-field interleaved data the right
   dimensionality makes residuals tiny.  Residuals are then zigzag
   encoded (small negative -> small unsigned) so that sign extension
   does not defeat the zero elimination stage — this plays the role of
   the sign-handling component in MPC's synthesized pipeline.
2. **Bit transposition**: within each block of *w* words (w = 32 for
   singles, 64 for doubles), transpose the w x w bit matrix.  Small
   residuals touch few bit positions, so most transposed words become
   all-zero.
3. **Zero elimination**: emit a bitmap marking non-zero transposed
   words followed by only the non-zero words.

The codec is bit-for-bit lossless — including NaNs, infinities,
negative zeros and denormals, since it only ever manipulates raw bit
patterns.

**Kernel shape.**  Both directions run the three stages as one loop
over *tiles* of ``_TILE_BYTES`` of input (a whole number of w-word
blocks): every stage is a numpy pass over a tile that stays in cache,
through scratch buffers allocated once per call.  The encoder writes
each tile's bitmap bytes and surviving words straight into a payload
allocated at the worst-case size and shrunk in place at the end; the
decoder reads each tile's words from a running offset and carries the
LNV prefix sums across tiles through the output itself.  Nothing
message-sized exists besides the input and the output (the decoder
sizes the stream by a popcount over the bitmap, a tile at a time).
:func:`bit_transpose` tiles the same way behind its whole-array
signature — the butterfly passes of a whole 16 MiB message run at
memory speed, those of a tile at cache speed (docs/performance.md).

**Block sparsity.**  A block whose w residuals are all zero — most
blocks of the data MPC compresses well — zigzags and transposes to
itself and leaves w zero bitmap bits and no words, so only *live*
blocks go through zigzag, transposition and zero elimination.  The
bitmap has one w-bit word per block: the encoder packs one bit per LNV
residual into such words, the decoder reads the stream's own, and a
zero word is a dead block either way.  A tile's live blocks are
gathered side by side (the butterflies stay full-width contiguous
passes), zigzagged, transposed and zero-eliminated, or expanded,
transposed, un-zigzagged and scattered back; dead blocks cost one fill
of their bitmap bytes or output words.  What still runs over every
word is the LNV subtraction and its inverse cumsum.  A tile with every
block live is its own gather — the same statements over the whole
tile, no copy — so there is one path, chosen by nothing but the tile's
own data.

Payload layout (little-endian):

====================  =======================================
bitmap                ``ceil(n_padded/8)`` bytes, MSB-first
non-zero words        4 (or 8) bytes each, little-endian
====================  =======================================

``n_elements`` and ``dimensionality`` travel out-of-band in
:class:`~repro.compression.base.CompressedData.params` exactly as the
paper ships them in the RTS-piggybacked header.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.errors import CompressionError

__all__ = ["MpcCompressor", "bit_transpose"]


#: Input bytes one tile covers (2 Ki blocks of 32 uint32 words, 512
#: blocks of 64 uint64 words).  Chosen from the sweep in
#: docs/performance.md ("Codec kernels"): 256 KiB - 1 MiB is a flat
#: optimum, where a tile's scratch stays in L2.
_TILE_BYTES = 256 * 1024


def _tile_blocks(udtype, nblocks: int) -> int:
    """Blocks per tile for words of ``udtype``, capped at ``nblocks``
    (at least 1, so an empty message still has a step)."""
    itemsize = np.dtype(udtype).itemsize
    return min(_TILE_BYTES // (8 * itemsize * itemsize), nblocks) or 1


def _tile_scratch(udtype, tile: int, count: int) -> np.ndarray:
    """``count`` word arrays one tile long, as the rows of a single
    allocation.  Separate buffers, freed together, add up past malloc's
    trim threshold, and the next call then page-faults its scratch back
    in; one block is one hole the next call reuses."""
    return np.empty((count, tile * np.dtype(udtype).itemsize * 8), dtype=udtype)


def _popcount(bits: np.ndarray) -> int:
    """Set bits of a uint8 array, unpacked a tile at a time."""
    step = _TILE_BYTES // 8
    return sum(int(np.count_nonzero(np.unpackbits(bits[i:i + step])))
               for i in range(0, bits.size, step))


def _gather_blocks(blocks: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out`` <- rows ``idx`` of ``blocks``, side by side."""
    # mode="raise" would gather into a temporary and copy that to
    # ``out``; ``idx`` comes from ``flatnonzero`` and is in range.
    np.take(blocks, idx, axis=0, out=out, mode="clip")


def _scatter_blocks(blocks: np.ndarray, idx: np.ndarray, dst: np.ndarray) -> None:
    """Rows of ``blocks`` -> blocks ``idx`` (ascending) of the flat
    ``dst``, whose last block may be cut short by the message's end."""
    w = blocks.shape[1]
    whole = dst.size // w
    m = idx.size - (idx[-1] == whole)
    dst[: whole * w].reshape(whole, w)[idx[:m]] = blocks[:m]
    if m < idx.size:
        dst[whole * w:] = blocks[m, : dst.size - whole * w]


def _transpose_tile(src: np.ndarray, dst: np.ndarray,
                    rows: np.ndarray, tmp: np.ndarray) -> None:
    """``dst`` <- the bit transpose of every block of ``src``.

    ``src`` and ``dst`` are ``(nb, w)`` views (they may be the same
    memory); ``rows`` and ``tmp`` are flat scratch of at least
    ``nb * w`` and ``nb * w / 2`` words.

    The mask-and-shift "delta swap" transpose (Hacker's Delight, 7-3)
    across all blocks of the tile at once: log2(w) passes, each a
    handful of elementwise ops, with no 8x bit-expansion.
    """
    nb, w = src.shape
    # Bit-row-major layout: a[r] holds bit-row r of every block, one
    # contiguous row.  Pairing rows r and r+j then slices whole
    # contiguous chunks (even at j == 1), where the block-major layout
    # would degrade to stride-j element access and defeat SIMD.
    a = rows[: nb * w].reshape(w, nb)
    a[...] = src.T
    dt = a.dtype.type
    full = (1 << w) - 1
    m = full >> (w // 2)  # 0x0000FFFF for w=32
    j = w // 2
    while j:
        jj = dt(j)
        # Rows with (row & j) == 0 pair with row + j; reshaping makes
        # both groups plain slices (views), so the swap is in place.
        b = a.reshape(w // (2 * j), 2, j, nb)
        lo = b[:, 0]
        hi = b[:, 1]
        t = tmp[: nb * w // 2].reshape(lo.shape)
        np.right_shift(hi, jj, out=t)
        t ^= lo
        t &= dt(m)
        lo ^= t
        t <<= jj
        hi ^= t
        j >>= 1
        if j:
            m = (m ^ (m << j)) & full
    dst[...] = a.T


def bit_transpose(words: np.ndarray) -> np.ndarray:
    """Transpose the bit matrix of each block of *w* *w*-bit words.

    ``words`` must be a 1-D uint32 or uint64 array whose length is a
    multiple of the word width (32 or 64).  The transform is an
    involution: applying it twice restores the input.  Blocks are
    independent, so the work runs tile by tile (see
    :func:`_transpose_tile`).
    """
    if words.dtype == np.uint32:
        w = 32
    elif words.dtype == np.uint64:
        w = 64
    else:
        raise CompressionError(f"bit_transpose expects uint32/uint64, got {words.dtype}")
    if words.size % w:
        raise CompressionError(f"length {words.size} is not a multiple of the word width {w}")
    nblocks = words.size // w
    out = np.empty(words.size, dtype=words.dtype)
    tile = _tile_blocks(words.dtype, nblocks)
    rows, tmp = _tile_scratch(words.dtype, tile, 2)
    src = words.reshape(nblocks, w)
    dst = out.reshape(nblocks, w)
    for s in range(0, nblocks, tile):
        _transpose_tile(src[s:s + tile], dst[s:s + tile], rows, tmp)
    return out


class MpcCompressor(Compressor):
    """Lossless MPC codec with a tunable ``dimensionality``.

    Parameters
    ----------
    dimensionality:
        The LNV stride — the distance (in values) to the prior value
        used as the prediction.  Interleaved d-field datasets compress
        best at their native d.  Must be >= 1; the MPC paper explores
        1..64, we accept any positive stride.
    """

    name = "mpc"
    lossless = True
    gpu_supported = True
    single_precision = True
    double_precision = True
    high_throughput = True
    mpi_support = False  # the naive library; MPC-OPT flips this
    #: MPC is lossless, so summing in the partially-decoded domain
    #: (undo zero-elimination + bit transpose, add, re-encode — fused
    #: hZCCL-style) reproduces compress(add(dec(a), dec(b))) exactly.
    reduce_supported = True
    # MPC-OPT (Section IV): kernel decomposition; each partition resets
    # the LNV predictor, so partitions also decode independently.
    multi_kernel = True
    streamable = True
    needs_offsets = True
    header_field = "dimensionality"

    def __init__(self, dimensionality: int = 1):
        if dimensionality < 1:
            raise CompressionError(f"dimensionality must be >= 1, got {dimensionality}")
        self.dimensionality = int(dimensionality)

    def staging_bytes(self, nbytes: int) -> int:
        return nbytes + nbytes // 16 + 4096  # worst-case MPC expansion

    # -- API --------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedData:
        data = self._check_input(data)
        w = data.itemsize * 8
        word_bytes = data.itemsize
        udtype, sdtype = (np.uint32, np.int32) if w == 32 else (np.uint64, np.int64)
        d = self.dimensionality
        words = data.view(udtype)
        n = words.size
        nblocks = -(-n // w)  # the last block is padded with zero residuals
        bitmap_bytes = nblocks * word_bytes  # one bit per padded word
        # Worst case: every transposed word survives.  Only what is
        # written gets touched; the tail is given back at the end.
        payload = np.empty(bitmap_bytes + nblocks * w * word_bytes, dtype=np.uint8)
        kept_words = payload[bitmap_bytes:].view(f"<u{word_bytes}")
        n_kept = 0
        tile = _tile_blocks(udtype, nblocks)
        resid, trans, rows, tmp = _tile_scratch(udtype, tile, 4)
        nonzero = np.empty(tile * w, dtype=np.bool_)
        for s in range(0, nblocks, tile):
            e = min(s + tile, nblocks)
            nb = e - s
            first, last = s * w, min(e * w, n)  # the tile's words
            count = last - first
            r = resid[: nb * w]
            # LNV residual r[i] = w[i] - w[i-d] mod 2^w; the message's
            # first d words have no predecessor and pass through.
            lo = min(max(first, d), last)
            r[: lo - first] = words[first:lo]
            np.subtract(words[lo:last], words[lo - d: last - d],
                        out=r[lo - first: count])
            r[count:] = 0
            # A block of zero residuals zigzags and transposes to
            # itself: w zero bitmap bits and no words.  One bit per
            # residual packs to one w-bit word per block, so liveness
            # is a contiguous pass, and only live blocks go further.
            live = np.packbits(
                np.not_equal(r, 0, out=nonzero[: nb * w])).view(udtype) != 0
            k = int(np.count_nonzero(live))
            tile_bitmap = payload[s * word_bytes: e * word_bytes]
            if k == nb:
                z, t = r, trans[: nb * w]
            else:
                tile_bitmap.fill(0)
                if k == 0:
                    continue
                # Gathered, so the passes below stay contiguous; the
                # residual scratch is free once the live blocks left it.
                z, t = trans[: k * w], resid[: k * w]
                idx = np.flatnonzero(live)
                _gather_blocks(r.reshape(nb, w), idx, z.reshape(k, w))
            # zigzag = (r << 1) ^ (r >> (w-1) arithmetic): small signed
            # residuals become small unsigned ones.  The arithmetic
            # shift through a signed view yields the all-ones/zero
            # extension in one pass.
            np.right_shift(z.view(sdtype), w - 1, out=t.view(sdtype))
            z <<= udtype(1)
            z ^= t

            _transpose_tile(z.reshape(k, w), t.reshape(k, w), rows, tmp)

            # Zero elimination: a bitmap of the non-zero transposed
            # words, then only those words.
            nz = np.not_equal(t, 0, out=nonzero[: k * w])
            if k == nb:
                tile_bitmap[...] = np.packbits(nz)
            else:
                tile_bitmap.view(udtype)[idx] = np.packbits(nz).view(udtype)
            kept = t[nz]
            kept_words[n_kept: n_kept + kept.size] = kept
            n_kept += kept.size
        del kept_words  # no view may outlive the in-place shrink
        payload.resize(bitmap_bytes + n_kept * word_bytes, refcheck=False)
        return CompressedData(
            algorithm=self.name,
            payload=payload,
            n_elements=n,
            dtype=data.dtype,
            params={"dimensionality": d},
            meta={"compressed_bytes": int(payload.nbytes)},
        )

    def decompress(self, comp: CompressedData) -> np.ndarray:
        self._check_payload(comp)
        d = int(comp.params.get("dimensionality", self.dimensionality))
        if d != self.dimensionality:
            # Decompress with the stride it was compressed with.
            return MpcCompressor(d).decompress(comp)
        n = comp.n_elements
        dtype = comp.dtype
        w = dtype.itemsize * 8
        word_bytes = dtype.itemsize
        udtype, sdtype = (np.uint32, np.int32) if w == 32 else (np.uint64, np.int64)
        nblocks = -(-n // w)
        bitmap_bytes = nblocks * word_bytes
        payload = comp.payload
        if payload.size < bitmap_bytes:
            raise CompressionError(
                f"mpc payload truncated: need >= {bitmap_bytes} bitmap bytes, have {payload.size}"
            )
        bitmap = payload[:bitmap_bytes]
        expect = bitmap_bytes + _popcount(bitmap) * word_bytes
        if payload.size != expect:
            raise CompressionError(
                f"mpc payload size mismatch: expected {expect} bytes, have {payload.size}"
            )
        kept_words = payload[bitmap_bytes:].view(f"<u{word_bytes}")
        n_taken = 0
        out = np.empty(n, dtype=dtype)
        words = out.view(udtype)
        tile = _tile_blocks(udtype, nblocks)
        trans, sign, rows, tmp = _tile_scratch(udtype, tile, 4)
        for s in range(0, nblocks, tile):
            e = min(s + tile, nblocks)
            nb = e - s
            first, last = s * w, min(e * w, n)
            count = last - first
            r = words[first:last]
            # The bitmap is one w-bit word per block, and a zero word
            # is a dead block: w zero residuals, nothing to decode.
            live_bits = bitmap[s * word_bytes: e * word_bytes]
            live = live_bits.view(udtype) != 0
            k = int(np.count_nonzero(live))
            if k < nb:
                r.fill(0)
                idx = np.flatnonzero(live)
                live_bits = live_bits.view(udtype)[idx].view(np.uint8)
            if k:
                # Undo zero elimination, then the transpose (an
                # involution), on the live blocks side by side.
                nz = np.unpackbits(live_bits).view(np.bool_)
                n_words = int(np.count_nonzero(nz))
                t = trans[: k * w]
                t.fill(0)
                t[nz] = kept_words[n_taken: n_taken + n_words]
                n_taken += n_words
                blocks = t.reshape(k, w)
                _transpose_tile(blocks, blocks, rows, tmp)

                # un-zigzag = (x >> 1) ^ -(x & 1); the sign extension
                # comes from parking the low bit in the sign position
                # and arithmetic-shifting it back down.  A tile of live
                # blocks lands straight in the output (less the
                # message's padding), a sparse one is scattered there.
                z, dest = (t[:count], r) if k == nb else (t, t)
                ext = np.left_shift(z, udtype(w - 1), out=sign[: z.size])
                sext = ext.view(sdtype)
                sext >>= w - 1
                np.right_shift(z, udtype(1), out=dest)
                dest ^= ext
                if k < nb:
                    _scatter_blocks(blocks, idx, r)

            # Undo the LNV subtraction: a modular cumsum per phase
            # (i mod d).  The tile's first d residuals take the sums
            # carried by the d words before it; the rest is local.
            lo, hi = max(first, d), min(last, first + d)
            if lo < hi:
                words[lo:hi] += words[lo - d: hi - d]
            if d == 1:
                np.cumsum(r, dtype=udtype, out=r)
            elif d < count:
                # All d phases as one axis-0 cumsum over an (m, d)
                # reshape; the zero-padded tail leaves the in-range
                # prefix sums untouched.
                m = -(-count // d)
                buf = np.zeros(m * d, dtype=udtype)
                buf[:count] = r
                r[...] = np.cumsum(buf.reshape(m, d), axis=0,
                                   dtype=udtype).reshape(-1)[:count]
        return out

    def ratio_for(self, data: np.ndarray) -> float:
        """Convenience: the compression ratio achieved on ``data``."""
        return self.compress(data).ratio

    @staticmethod
    def best_dimensionality(data: np.ndarray, candidates=range(1, 9)) -> int:
        """Pick the dimensionality with the best ratio (paper Table III
        uses fine-tuned dimensionality per dataset)."""
        best_d, best_r = 1, -1.0
        for d in candidates:
            r = MpcCompressor(d).compress(data).ratio
            if r > best_r:
                best_d, best_r = d, r
        return best_d
