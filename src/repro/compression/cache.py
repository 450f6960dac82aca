"""Content-addressed memoization of codec results.

Collectives forward the *same* payload along many hops (a 16-rank
binomial bcast compresses one buffer 15 times), and benchmark sweeps
re-send identical buffers.  The simulator charges the modelled kernel
time for every (de)compression regardless; this cache only removes the
*redundant host-side numpy work*, so it changes wall-clock speed of
the simulation, never its results.

Lookups are keyed by a CRC-32 fingerprint of the raw bytes plus the
codec identity — its name and *every* parameter it declares through
:meth:`~repro.compression.base.Compressor.cache_params`, so two
instances that differ in any constructor argument never share an
entry — then confirmed by an exact byte comparison against a reference
stored with the entry (a copy, or bytes made read-only), so a
fingerprint collision can only ever cause a spurious miss — never a
wrong result.  CRC-32 is not free:
zlib 1.2.13 computes it in software, at ~1.8 GiB/s on a 2-core VM where
``ndarray.copy`` moves 3.5–5.4 GiB/s, so it is the dearest pass per
byte — and the compress side hashes every outgoing send buffer (see
``docs/performance.md``, "Data-plane passes").  Entries are LRU-bounded
by total byte size (references included).

The decode memo works at **message granularity**: one entry per
received wire payload — all its partitions — not one per partition.
An entry holds the decoded partitions, read-only, and the CRC-32 of
their concatenation once a check has asked for it (folded from the
per-partition CRCs, :func:`~repro.utils.integrity.crc32_of_parts`), so
the integrity check of a hit compares two integers instead of rehashing
the buffer.  Lookups take the fingerprint the receive path has already
computed (the wire CRC it just verified) instead of hashing the bytes
again, and do one byte compare.  Four ways in, one entry:
:meth:`CodecCache.decode` hands the caller a fresh array it may mutate
(the partitions' concatenation: one copy); :meth:`CodecCache.decoded_crc`
answers a check that only wants the CRC (the sender's expected-value
decode of a lossy codec), with no copy at all;
:meth:`CodecCache.decode_parts` lends the read-only partitions to a
caller that concatenates them itself (a streamed receive), or hands
them over and forgets the entry (``keep=False``: a fused reduction, the
one reader of a partial sum); and :meth:`CodecCache.learn_decode`
records the decode of an image this process has just encoded with a
lossless codec, which is its source, bit for bit — so a receiver of
bytes encoded here never runs a decoder.  The sender's expected-value
decode and the receiver's decode of the same bytes share an entry.

The cache knows nothing about faults.  A run whose plan has codec
faults bypasses every memo one level up: the engine
(:meth:`~repro.core.engine.CompressionEngine._compress` / ``_decode``)
then calls :meth:`CodecCache.run_compress` /
:meth:`CodecCache.run_decompress` itself, hashes the output for real
and records no decode.

Every real codec execution of the data plane goes through those two
(the memoized paths call them on a miss), which is where the
``compress_execs`` / ``decompress_execs`` counters of :meth:`stats`
are taken.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.utils.integrity import crc32_of_parts

__all__ = ["CodecCache", "GLOBAL_CODEC_CACHE", "handout"]


def handout(parts) -> np.ndarray:
    """One array the caller owns, holding ``parts`` in order: their
    concatenation (one copy), or a lone part as is when it is writable
    — a real decode nobody else holds, since every memoized partition
    is read-only."""
    if len(parts) > 1:
        return np.concatenate(parts)
    return parts[0] if parts[0].flags.writeable else parts[0].copy()


def _raw_view(payload: np.ndarray) -> np.ndarray:
    """Flat contiguous uint8 view of an array's byte image (no copy
    when the input is already contiguous)."""
    return np.ascontiguousarray(payload).view(np.uint8).reshape(-1)


class _Entry:
    """One memoized result with its LRU weight and the reference byte
    image a lookup is confirmed against.  A decode entry's ``value`` is
    its tuple of read-only partitions and ``crc`` the CRC-32 of their
    concatenation, filled in the first time an integrity check asks for
    it — a pure function of ``value``, which nothing can write."""

    __slots__ = ("value", "nbytes", "ref", "crc")

    def __init__(self, value, nbytes: int, ref: np.ndarray):
        self.value = value
        self.nbytes = nbytes
        self.ref = ref
        self.crc: Optional[int] = None


class CodecCache:
    """LRU cache over compress/decode results."""

    def __init__(self, max_bytes: int = 512 << 20):
        self.max_bytes = max_bytes
        self._store: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_saved = 0
        self.compress_execs = 0
        self.decompress_execs = 0

    def _key(self, op: str, codec: Compressor, shape: tuple, crc: int,
             nbytes: int) -> tuple:
        return (op, codec.name, codec.cache_params(), shape, crc, nbytes)

    def _put(self, key: tuple, value, nbytes: int, ref: np.ndarray) -> _Entry:
        prev = self._store.pop(key, None)
        if prev is not None:
            self._bytes -= prev.nbytes
        entry = self._store[key] = _Entry(value, nbytes, ref)
        self._bytes += nbytes
        while self._bytes > self.max_bytes and self._store:
            _, evicted = self._store.popitem(last=False)
            self._bytes -= evicted.nbytes
        return entry

    def _decode_key(self, codec: Compressor, comps, fingerprint: int,
                    nbytes: int) -> tuple:
        """The decode memo's key of one message: its partitions and the
        CRC-32 and size of its wire bytes."""
        shape = (comps[0].dtype.char,) + tuple(
            (c.n_elements, c.nbytes) for c in comps)
        return self._key("d", codec, shape, fingerprint, nbytes)

    def _get(self, key: tuple, raw: np.ndarray) -> Optional[_Entry]:
        hit = self._store.get(key)
        if hit is None or not np.array_equal(hit.ref, raw):
            # A mismatched byte image under a matching fingerprint is a
            # CRC collision: treat as a miss (the put will replace it).
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        self.bytes_saved += raw.nbytes
        return hit

    # -- real executions (counted, never memoized) --------------------------
    def run_compress(self, codec: Compressor, data: np.ndarray) -> CompressedData:
        """Execute ``codec.compress(data)`` for real."""
        self.compress_execs += 1
        return codec.compress(data)

    def run_decompress(self, codec: Compressor, comp: CompressedData) -> np.ndarray:
        """Execute ``codec.decompress(comp)`` for real."""
        self.decompress_execs += 1
        return codec.decompress(comp)

    # -- memoized paths -----------------------------------------------------
    def compress(self, codec: Compressor, data: np.ndarray) -> CompressedData:
        """Memoized ``codec.compress(data)``."""
        raw = _raw_view(data)
        crc = zlib.crc32(raw)
        key = self._key("c", codec, (data.dtype.char,), crc, raw.nbytes)
        cached = self._get(key, raw)
        if cached is not None:
            return cached.value
        comp = self.run_compress(codec, data)
        # The fingerprint doubles as the integrity checksum of the
        # source bytes, so the send path can reuse it instead of
        # re-hashing the same buffer (see CompressionEngine._plan_crc).
        comp.meta.setdefault("src_crc32", crc & 0xFFFFFFFF)
        # The reference must be a snapshot: the caller may mutate its
        # buffer in place and re-send, and a stale alias would then
        # confirm a hit against bytes the stored result was not
        # computed from.  Read-only, it doubles as the decode of a
        # lossless ``comp`` (:meth:`learn_decode`).
        ref = raw.copy()
        ref.flags.writeable = False
        self._put(key, comp, comp.nbytes + raw.nbytes + 64, ref)
        return comp

    def _sources(self, codec: Compressor, comps) -> Optional[list]:
        """The source of each of ``comps`` as a read-only array of its
        dtype: the reference copy of the compress entry that produced
        it, found by the fingerprint it carries (``src_crc32``) — no
        copy, no hash.  None when one of them is not (or no longer)
        such an entry's result."""
        parts = []
        for comp in comps:
            crc = comp.meta.get("src_crc32")
            entry = None if crc is None else self._store.get(self._key(
                "c", codec, (comp.dtype.char,), crc, comp.original_nbytes))
            if entry is None or entry.value is not comp:
                return None
            parts.append(entry.ref.view(comp.dtype))
        return parts

    def decode_parts(self, codec: Compressor, payload: np.ndarray, comps,
                     fingerprint: Optional[int] = None,
                     want_crc: bool = False, keep: bool = True) -> tuple:
        """Memoized decode of one received message, lent read-only.

        ``payload`` is the message's wire bytes and ``comps`` its
        partitions in order (views into ``payload``).  ``fingerprint``
        is the CRC-32 of ``payload`` when the caller already has it (a
        wire CRC it verified); otherwise it is computed here.  Returns
        ``(parts, crc)``: ``parts`` the decoded partitions in order —
        the entry's own read-only arrays, to be concatenated or copied,
        never handed out — and ``crc`` the CRC-32 of their concatenation
        when ``want_crc`` (memoized with the entry, so only the first
        request hashes).  ``keep=False`` hands the partitions over
        instead: the entry leaves the memo (a miss stores none), for a
        caller that is the message's only reader.
        """
        raw = _raw_view(payload)
        if fingerprint is None:
            fingerprint = zlib.crc32(raw)
        key = self._decode_key(codec, comps, fingerprint, raw.nbytes)
        entry = self._get(key, raw)
        if entry is not None and not keep:
            self._bytes -= self._store.pop(key).nbytes
        elif entry is None:
            # Keep the decoded partitions themselves: a miss costs no
            # pass a hit would not also cost.
            parts = tuple(self.run_decompress(codec, c) for c in comps)
            for part in parts:
                part.flags.writeable = False
            weight = sum(p.nbytes for p in parts) + raw.nbytes + 64
            entry = (self._put(key, parts, weight, raw.copy()) if keep
                     else _Entry(parts, weight, raw))
        if want_crc and entry.crc is None:
            entry.crc = crc32_of_parts(
                (zlib.crc32(_raw_view(p)), p.nbytes) for p in entry.value)
        return entry.value, entry.crc

    def learn_decode(self, codec: Compressor, payload: np.ndarray, comps,
                     fingerprint: int, crc: int, parts=None) -> None:
        """Record the decode of one message this process has just
        encoded with a lossless codec: its source.

        Keyed as :meth:`decode_parts` looks the message up — ``payload``
        its wire bytes, ``comps`` its partitions in order, and
        ``fingerprint`` the CRC-32 of ``payload`` — so a receiver of
        these bytes hits.  ``crc`` is the CRC-32 of the source, the
        stamp the sender already holds: a hit never hashes the decode.
        ``parts`` are the source partitions, which the entry keeps and
        makes read-only; by default the compress entries' reference
        copies (:meth:`_sources`), and when one has left the memo nothing
        is recorded — the receiver then decodes for real.  The reference
        is ``payload`` itself, made read-only: the image holds those
        bytes anyway, so nothing is copied and nothing can change them
        under the entry.  The weight counts the partitions and the
        reference even where another holder shares them.
        """
        if parts is None:
            parts = self._sources(codec, comps)
            if parts is None:
                return
        for part in parts:
            part.flags.writeable = False
        payload.flags.writeable = False
        raw = _raw_view(payload)
        entry = self._put(self._decode_key(codec, comps, fingerprint, raw.nbytes),
                          tuple(parts),
                          sum(p.nbytes for p in parts) + raw.nbytes + 64, raw)
        entry.crc = crc

    def decode(self, codec: Compressor, payload: np.ndarray, comps,
               fingerprint: Optional[int] = None,
               want_crc: bool = False) -> tuple:
        """:meth:`decode_parts`, handed out: returns ``(data, crc)``,
        ``data`` a fresh array the caller owns."""
        parts, crc = self.decode_parts(codec, payload, comps, fingerprint,
                                       want_crc)
        return handout(parts), crc

    def decoded_crc(self, codec: Compressor, payload: np.ndarray,
                    comps) -> int:
        """CRC-32 of the decode of one message (:meth:`decode_parts`),
        for a check that keeps no data: nothing is copied."""
        return self.decode_parts(codec, payload, comps, want_crc=True)[1]

    def stats(self) -> dict:
        """Counter snapshot: cache effectiveness for profiling reports,
        plus the real codec executions behind it."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_saved": self.bytes_saved,
            "entries": len(self._store),
            "bytes": self._bytes,
            "compress_execs": self.compress_execs,
            "decompress_execs": self.decompress_execs,
        }

    def clear(self) -> None:
        self._store.clear()
        self._bytes = 0
        self.hits = self.misses = self.bytes_saved = 0
        self.compress_execs = self.decompress_execs = 0


#: process-wide cache shared by every CompressionEngine
GLOBAL_CODEC_CACHE = CodecCache()
