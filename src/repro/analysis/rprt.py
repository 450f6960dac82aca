"""RPRT — self-describing binary telemetry container.

Chrome-trace JSON is the lingua franca for *viewing* a trace, but it is
a terrible container at scale: the whole document must be materialized
to read one lane, floats are spelled out in ASCII, and every span
repeats its key names.  ``RPRT`` is the repository's binary telemetry
container, GGUF-style: a magic/versioned header, typed metadata
key-values, then 8-byte-aligned **columnar blocks** that numpy can map
straight out of the file — span records split into per-field columns
and a deduplicated string table.

Dogfooding is the point: each block may be compressed through the
existing codec registry (the lossless paths — MPC by default, which is
bit-exact on arbitrary bit patterns, or ``null``).  The writer verifies
every compressed block round-trips bit-for-bit before committing to it
and falls back to raw storage otherwise, and every block carries a
CRC-32 of its stored bytes so truncation or corruption is detected on
read, not silently analyzed.

File layout (all integers little-endian)::

    magic   b"RPRT"
    u32     container version (1)
    u64     n_kv
    u64     n_blocks
    n_kv    typed key-values:
              u32 key_len | key utf-8 | u8 type | value
              type 1=i64, 2=f64, 3=bool(u8), 4=str, 5=json
              (str/json: u64 byte_len | utf-8 bytes)
    n_blocks block-table entries:
              u32 name_len | name | u8 dtype code | u32 codec_len | codec
              | u32 params_len | params json | u64 n_elements
              | u64 raw_nbytes | u64 stored_nbytes | u64 offset | u32 crc32
    ...     zero padding so every block offset is 8-byte aligned
    blocks  stored bytes (raw little-endian column data, or the codec
            payload when ``codec`` is non-empty)

Span records are stored in groups of :data:`SPANS_PER_BLOCK` rows
(``spans/<g>/<column>``), each group carrying ``t_min_us``/``t_max_us``
metadata so a time-windowed reader skips whole groups without touching
their bytes.  Timestamps are stored in *exported* units (microseconds,
as rounded by the Chrome exporter) so JSON -> RPRT -> JSON is
byte-identical and RPRT -> JSON -> RPRT is bit-stable.

``RprtReader`` memory-maps the file: raw blocks are zero-copy views
into the map, compressed blocks decode one at a time, and
:meth:`RprtReader.span_groups` — the RPRT decoder — yields one stored
group at a time in the exported form every trace reader and writer
trades in (:func:`repro.analysis.export.span_group`).
:func:`span_records` turns such groups into
:class:`~repro.sim.trace.TraceRecord` objects (:meth:`RprtReader.spans`)
and :func:`write_span_groups` — the RPRT encoder — stores them, whether
they come from a live tracer (:func:`write_trace_rprt`) or from the
Chrome-JSON decoder; analysis never holds the whole file.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.analysis.export import exported_spans
from repro.sim.trace import SPAN_SCHEMA, records_from_columns

__all__ = [
    "RPRT_MAGIC", "RPRT_VERSION", "SPANS_PER_BLOCK", "RprtError",
    "RprtWriter", "RprtReader", "is_rprt", "span_records",
    "write_span_groups", "write_trace_rprt", "DEFAULT_BLOCK_CODEC",
]

RPRT_MAGIC = b"RPRT"
RPRT_VERSION = 1
#: span rows per columnar group — bounds reader working-set size
SPANS_PER_BLOCK = 4096
#: registry codec applied to blocks (lossless; ``"none"`` disables)
DEFAULT_BLOCK_CODEC = "mpc"

# KV type tags
_KV_I64, _KV_F64, _KV_BOOL, _KV_STR, _KV_JSON = 1, 2, 3, 4, 5

#: block dtype codes <-> numpy dtypes (little-endian on disk)
_DTYPES = ("u1", "i1", "u4", "i4", "i8", "u8", "f8")
_DTYPE_CODE = {d: i for i, d in enumerate(_DTYPES)}

_ALIGN = 8
#: columns below this raw size are never worth a codec header
_MIN_COMPRESS_BYTES = 64


class RprtError(ValueError):
    """Malformed, truncated or corrupt RPRT container."""


def is_rprt(path) -> bool:
    """True if ``path`` starts with the RPRT magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == RPRT_MAGIC
    except OSError:
        return False


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- writer ------------------------------------------------------------------

class _Block:
    __slots__ = ("name", "dtype", "codec", "params", "n_elements",
                 "raw_nbytes", "stored", "offset", "crc32")

    def __init__(self, name, dtype, codec, params, n_elements, raw_nbytes,
                 stored):
        self.name = name
        self.dtype = dtype
        self.codec = codec
        self.params = params
        self.n_elements = n_elements
        self.raw_nbytes = raw_nbytes
        self.stored = stored
        self.offset = 0
        self.crc32 = zlib.crc32(stored) & 0xFFFFFFFF


class RprtWriter:
    """Accumulates key-values and columnar blocks, then serializes.

    The writer is deterministic: identical inputs produce identical
    bytes (insertion order of KVs/blocks is preserved, offsets are a
    pure function of the table, and codec choices depend only on the
    data), which the bit-stability tests rely on.
    """

    def __init__(self, block_codec: str = DEFAULT_BLOCK_CODEC):
        self._kvs: list[tuple[str, int, object]] = []
        self._blocks: list[_Block] = []
        self._codec_name = (block_codec or "none").lower()
        self._codec = None
        if self._codec_name not in ("none", ""):
            from repro.compression import get_compressor

            self._codec = get_compressor(self._codec_name)
            if not self._codec.lossless:
                raise RprtError(
                    f"block codec {self._codec_name!r} is lossy; telemetry "
                    f"blocks require a lossless registry codec")

    # -- metadata ----------------------------------------------------------
    def add_kv(self, key: str, value) -> None:
        """Add a typed metadata key-value (type inferred from ``value``;
        dicts/lists are stored as canonical JSON)."""
        if isinstance(value, bool):
            self._kvs.append((key, _KV_BOOL, value))
        elif isinstance(value, int):
            self._kvs.append((key, _KV_I64, value))
        elif isinstance(value, float):
            self._kvs.append((key, _KV_F64, value))
        elif isinstance(value, str):
            self._kvs.append((key, _KV_STR, value))
        elif isinstance(value, (dict, list, tuple)):
            self._kvs.append((key, _KV_JSON, _canonical_json(value)))
        else:
            raise RprtError(f"unsupported KV type for {key!r}: {type(value)}")

    # -- blocks ------------------------------------------------------------
    def add_block(self, name: str, data) -> None:
        """Add a columnar block from a 1-D numpy array (or raw bytes,
        stored as a ``u1`` column)."""
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = np.frombuffer(bytes(data), dtype=np.uint8)
        arr = np.ascontiguousarray(data)
        dtype = arr.dtype.newbyteorder("<")
        code = dtype.str[1:]  # e.g. "<f8" -> "f8"
        if code not in _DTYPE_CODE:
            raise RprtError(f"block {name!r}: unsupported dtype {arr.dtype}")
        raw = arr.astype(dtype, copy=False).tobytes()
        codec_name, params, stored = "", {}, raw
        if self._codec is not None and len(raw) >= _MIN_COMPRESS_BYTES:
            packed = self._try_compress(raw)
            if packed is not None:
                codec_name, params, stored = packed
        self._blocks.append(_Block(name, code, codec_name, params,
                                   arr.size, len(raw), stored))

    def _try_compress(self, raw: bytes):
        """Compress ``raw`` through the registry codec, keeping the
        result only if it is smaller *and* round-trips bit-for-bit."""
        pad = (-len(raw)) % 8
        view = np.frombuffer(raw + b"\x00" * pad, dtype="<f8")
        try:
            comp = self._codec.compress(view)
        except Exception:
            return None
        payload = comp.payload.tobytes()
        if len(payload) >= len(raw):
            return None
        if self._codec.decompress(comp).tobytes() != raw + b"\x00" * pad:
            return None  # pragma: no cover - lossless codecs round-trip
        return self._codec_name, dict(comp.params), payload

    # -- serialization -----------------------------------------------------
    def _header_bytes(self) -> bytes:
        out = [RPRT_MAGIC, struct.pack("<IQQ", RPRT_VERSION,
                                       len(self._kvs), len(self._blocks))]
        for key, kind, value in self._kvs:
            kb = key.encode("utf-8")
            out.append(struct.pack("<I", len(kb)))
            out.append(kb)
            out.append(struct.pack("<B", kind))
            if kind == _KV_I64:
                out.append(struct.pack("<q", value))
            elif kind == _KV_F64:
                out.append(struct.pack("<d", value))
            elif kind == _KV_BOOL:
                out.append(struct.pack("<B", int(value)))
            else:  # str / json
                vb = value.encode("utf-8")
                out.append(struct.pack("<Q", len(vb)))
                out.append(vb)
        for b in self._blocks:
            nb = b.name.encode("utf-8")
            cb = b.codec.encode("utf-8")
            pb = (_canonical_json(b.params) if b.codec else "").encode("utf-8")
            out.append(struct.pack("<I", len(nb)))
            out.append(nb)
            out.append(struct.pack("<B", _DTYPE_CODE[b.dtype]))
            out.append(struct.pack("<I", len(cb)))
            out.append(cb)
            out.append(struct.pack("<I", len(pb)))
            out.append(pb)
            out.append(struct.pack("<QQQQI", b.n_elements, b.raw_nbytes,
                                   len(b.stored), b.offset, b.crc32))
        return b"".join(out)

    def write(self, path) -> dict:
        """Serialize to ``path``; returns block-level size statistics
        (``raw_bytes``, ``stored_bytes``, ``ratio``, ``file_bytes``)."""
        # Offsets are fixed-width, so the header size is known before
        # offsets are assigned: lay out blocks in two passes.
        header_len = len(self._header_bytes())
        offset = header_len + ((-header_len) % _ALIGN)
        for b in self._blocks:
            b.offset = offset
            offset += len(b.stored) + ((-len(b.stored)) % _ALIGN)
        header = self._header_bytes()
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(b"\x00" * ((-len(header)) % _ALIGN))
            for b in self._blocks:
                fh.write(b.stored)
                fh.write(b"\x00" * ((-len(b.stored)) % _ALIGN))
            return dict(self.stats(), file_bytes=fh.tell())

    def stats(self) -> dict:
        """Block-level sizes known before serialization (used to stamp
        the telemetry metrics *into* the file's own metadata)."""
        raw = sum(b.raw_nbytes for b in self._blocks)
        stored = sum(len(b.stored) for b in self._blocks)
        return {"raw_bytes": raw, "stored_bytes": stored,
                "ratio": raw / stored if stored else 1.0}


# -- reader ------------------------------------------------------------------

class _BlockInfo:
    __slots__ = ("name", "dtype", "codec", "params", "n_elements",
                 "raw_nbytes", "stored_nbytes", "offset", "crc32")


class RprtReader:
    """Memory-mapped RPRT reader.

    Raw blocks are returned as zero-copy numpy views into the map;
    compressed blocks are decoded one at a time through the codec
    registry.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._fh.close()
            raise RprtError(f"{path}: empty file is not an RPRT container")
        try:
            self._parse_header()
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            self.close()
            raise RprtError(f"{path}: truncated or corrupt header: {exc}")
        self._strings: Optional[list[str]] = None
        #: meta string id -> its parsed dict
        self._metas: dict[int, dict] = {}

    # -- header parsing ----------------------------------------------------
    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._mm):
            raise struct.error(f"need {n} bytes at {self._pos}, have "
                               f"{len(self._mm) - self._pos}")
        out = self._mm[self._pos:end]
        self._pos = end
        return out

    def _parse_header(self) -> None:
        self._pos = 0
        if self._take(4) != RPRT_MAGIC:
            raise RprtError(f"{self.path}: bad magic (not an RPRT container)")
        (self.version, n_kv, n_blocks) = struct.unpack("<IQQ", self._take(20))
        if self.version != RPRT_VERSION:
            raise RprtError(f"{self.path}: container version {self.version} "
                            f"unsupported (expected {RPRT_VERSION})")
        self.kvs: dict[str, object] = {}
        for _ in range(n_kv):
            (klen,) = struct.unpack("<I", self._take(4))
            key = self._take(klen).decode("utf-8")
            (kind,) = struct.unpack("<B", self._take(1))
            if kind == _KV_I64:
                value = struct.unpack("<q", self._take(8))[0]
            elif kind == _KV_F64:
                value = struct.unpack("<d", self._take(8))[0]
            elif kind == _KV_BOOL:
                value = bool(struct.unpack("<B", self._take(1))[0])
            elif kind in (_KV_STR, _KV_JSON):
                (vlen,) = struct.unpack("<Q", self._take(8))
                value = self._take(vlen).decode("utf-8")
                if kind == _KV_JSON:
                    value = json.loads(value)
            else:
                raise RprtError(f"{self.path}: unknown KV type {kind} "
                                f"for key {key!r}")
            self.kvs[key] = value
        self._blocks: dict[str, _BlockInfo] = {}
        for _ in range(n_blocks):
            b = _BlockInfo()
            (nlen,) = struct.unpack("<I", self._take(4))
            b.name = self._take(nlen).decode("utf-8")
            (code,) = struct.unpack("<B", self._take(1))
            if code >= len(_DTYPES):
                raise RprtError(f"{self.path}: block {b.name!r} has unknown "
                                f"dtype code {code}")
            b.dtype = _DTYPES[code]
            (clen,) = struct.unpack("<I", self._take(4))
            b.codec = self._take(clen).decode("utf-8")
            (plen,) = struct.unpack("<I", self._take(4))
            params = self._take(plen).decode("utf-8")
            b.params = json.loads(params) if params else {}
            (b.n_elements, b.raw_nbytes, b.stored_nbytes, b.offset,
             b.crc32) = struct.unpack("<QQQQI", self._take(36))
            if b.offset + b.stored_nbytes > len(self._mm):
                raise RprtError(f"{self.path}: block {b.name!r} extends past "
                                f"end of file (truncated?)")
            self._blocks[b.name] = b

    # -- generic access ----------------------------------------------------
    def kv(self, key: str, default=None):
        return self.kvs.get(key, default)

    @property
    def block_names(self) -> list[str]:
        return list(self._blocks)

    def block_info(self, name: str) -> _BlockInfo:
        try:
            return self._blocks[name]
        except KeyError:
            raise RprtError(f"{self.path}: no block {name!r}") from None

    def read(self, name: str, verify: bool = True) -> np.ndarray:
        """Load one column.  Raw blocks come back as a read-only view
        into the mmap (zero copy); compressed blocks are decoded.  With
        ``verify`` (default), the stored bytes must match the block's
        CRC-32."""
        b = self.block_info(name)
        stored = memoryview(self._mm)[b.offset:b.offset + b.stored_nbytes]
        if verify and (zlib.crc32(stored) & 0xFFFFFFFF) != b.crc32:
            raise RprtError(f"{self.path}: CRC mismatch on block {b.name!r} "
                            f"(corrupt or truncated container)")
        if b.codec:
            from repro.compression import get_compressor
            from repro.compression.base import CompressedData

            codec = get_compressor(b.codec, **b.params)
            comp = CompressedData(
                algorithm=b.codec,
                payload=np.frombuffer(stored, dtype=np.uint8),
                n_elements=(b.raw_nbytes + 7) // 8,
                dtype=np.dtype("<f8"), params=dict(b.params))
            raw = codec.decompress(comp).tobytes()[:b.raw_nbytes]
        else:
            raw = stored
        out = np.frombuffer(raw, dtype="<" + b.dtype)
        if out.size != b.n_elements:
            raise RprtError(f"{self.path}: block {b.name!r} decoded to "
                            f"{out.size} elements, expected {b.n_elements}")
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        mm, self._mm = self._mm, None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                # Block views are still alive — an error in flight holds
                # them in its traceback — and the error is the news, not
                # this: the map goes with the last of them.
                pass

    def __enter__(self) -> "RprtReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- trace-specific access --------------------------------------------
    def strings(self) -> list[str]:
        """The deduplicated string table (decoded at the first call)."""
        if self._strings is None:
            offsets = self.read("strings/offsets").tolist()
            blob = self.read("strings/blob").tobytes()
            self._strings = [blob[a:b].decode("utf-8")
                             for a, b in zip(offsets, offsets[1:])]
        return self._strings

    @property
    def n_spans(self) -> int:
        return int(self.kv("spans/count", 0))

    @property
    def n_span_groups(self) -> int:
        return int(self.kv("spans/groups", 0))

    def otherdata(self) -> dict:
        """The Chrome-trace ``otherData`` dict (metrics + elapsed)."""
        return dict(self.kv("trace/otherdata", {}))

    def metrics(self) -> dict:
        return dict(self.otherdata().get("metrics", {}))

    def span_groups(self, time_range: Optional[tuple] = None) -> Iterator:
        """The RPRT decoder: each stored span group in exported form
        (:func:`~repro.analysis.export.span_group`), its columns zero-
        copy where the block is raw.  Groups entirely outside
        ``time_range`` (simulated seconds) are skipped without touching
        their bytes.  The meta column holds string ids; each distinct
        one is parsed once per reader, however many rows and groups
        carry it."""
        metas = self._metas
        for g in range(self.n_span_groups):
            if time_range is not None:
                g_min = self.kv(f"spans/{g}/t_min_us", 0.0) / 1e6
                g_max = self.kv(f"spans/{g}/t_max_us", 0.0) / 1e6
                if g_max < time_range[0] or g_min > time_range[1]:
                    continue
            columns = [self.read(f"spans/{g}/{col}") for col in _SPAN_COLUMNS]
            strings = self.strings()
            if np.max(columns[5:], initial=0) >= len(strings):
                raise RprtError(f"{self.path}: span group {g} points outside "
                                f"the string table")
            for mi in set(columns[8].tolist()).difference(metas):
                try:
                    meta = json.loads(strings[mi]) if strings[mi] else {}
                except ValueError:
                    meta = None
                if not isinstance(meta, dict):
                    raise RprtError(f"{self.path}: meta string {mi} is not a "
                                    f"JSON object")
                metas[mi] = meta
            yield columns, strings, metas

    def spans(self, track: Optional[str] = None, rank: Optional[int] = None,
              time_range: Optional[tuple] = None) -> Iterator:
        """Stream :class:`~repro.sim.trace.TraceRecord` objects block by
        block, optionally filtered by ``track`` name, ``rank``, and a
        ``(t0, t1)`` window in simulated seconds (see
        :func:`span_records`)."""
        return span_records(self.span_groups(time_range), track, rank,
                            time_range)


def span_records(groups, track: Optional[str] = None,
                 rank: Optional[int] = None,
                 time_range: Optional[tuple] = None) -> Iterator:
    """The :class:`~repro.sim.trace.TraceRecord` objects of exported-
    form column groups, whichever decoder they come from: times are the
    file's microseconds / 1e6, and records with the same meta id share
    one dict.  ``track``, ``rank`` and ``time_range`` keep the matching
    rows only."""
    tracks_of, track_ids = None, ()
    for columns, strings, metas in groups:
        ts, dur = columns[0], columns[1]
        t0, t1 = ts / 1e6, (ts + dur) / 1e6
        columns = [t0, t1, *columns[2:]]
        keep = None
        if rank is not None:
            keep = columns[4] == int(rank)
        if track is not None:
            if strings is not tracks_of:
                tracks_of = strings
                track_ids = [i for i, s in enumerate(strings) if s == track]
            hit = np.isin(columns[7], track_ids)
            keep = hit if keep is None else keep & hit
        if time_range is not None:
            hit = (t1 >= time_range[0]) & (t0 <= time_range[1])
            keep = hit if keep is None else keep & hit
        if keep is not None:
            columns = [col[keep] for col in columns]
        yield from records_from_columns(*(col.tolist() for col in columns),
                                        strings, metas)


#: block name and on-disk dtype of each span column
_SPAN_COLUMNS = tuple(block for _, block, _, _ in SPAN_SCHEMA)
_SPAN_DTYPES = tuple(dtype for _, _, _, dtype in SPAN_SCHEMA)


class _StringTable:
    def __init__(self):
        self._index: dict[str, int] = {}
        self._items: list[bytes] = []

    def add(self, s: str) -> int:
        idx = self._index.get(s)
        if idx is None:
            idx = len(self._items)
            self._index[s] = idx
            self._items.append(s.encode("utf-8"))
        return idx

    def blocks(self):
        offsets = np.zeros(len(self._items) + 1, dtype=np.uint64)
        np.cumsum([len(b) for b in self._items], out=offsets[1:])
        blob = np.frombuffer(b"".join(self._items), dtype=np.uint8)
        return offsets, blob


def _add_span_group(w: RprtWriter, g: int, columns) -> None:
    """Store one column group (nine arrays, ``_SPAN_COLUMNS`` order) as
    the blocks and key-values of span group ``g``."""
    for name, values, dt in zip(_SPAN_COLUMNS, columns, _SPAN_DTYPES):
        w.add_block(f"spans/{g}/{name}", np.asarray(values, dtype=dt))
    ts, dur = columns[0], columns[1]
    w.add_kv(f"spans/{g}/count", len(ts))
    w.add_kv(f"spans/{g}/t_min_us", float(ts.min()))
    w.add_kv(f"spans/{g}/t_max_us", float((ts + dur).max()))


def write_span_groups(path, otherdata: dict, groups,
                      block_codec: str = DEFAULT_BLOCK_CODEC,
                      spans_per_block: int = SPANS_PER_BLOCK,
                      registry=None) -> dict:
    """The RPRT encoder: store a trace's exported-form column groups
    (one pass of ``groups()``; see
    :func:`~repro.analysis.export.span_group`) as span groups of
    ``spans_per_block`` rows plus the string table, then ``otherdata``.

    The string table lists each distinct string at its first
    appearance, row-major over ``category, label, track, meta`` of the
    rows as written, with ``""`` at index 0; a group's own ids are in no
    such order, so they are renumbered here through the strings'
    content.  Each distinct meta is JSON-encoded once.  With a live
    ``registry`` the container's write statistics are stamped into it
    and its dump, built then, is ``otherdata``'s ``metrics``.  Returns
    the writer statistics."""
    w = RprtWriter(block_codec=block_codec)
    table = _StringTable()
    table.add("")
    rows = [np.empty(0, dtype=dt) for dt in _SPAN_DTYPES]
    n = n_groups = 0
    for columns, strings, metas in groups():
        if not len(columns[0]):
            continue
        source = np.stack(columns[5:], axis=1)
        source[:, 3] += len(strings)  # metas number on from the strings
        distinct, first = np.unique(source.ravel(), return_index=True)
        final = np.zeros(int(distinct[-1]) + 1, dtype="u4")
        for i in distinct[np.argsort(first)].tolist():
            if i < len(strings):
                final[i] = table.add(strings[i])
            else:
                meta = metas[i - len(strings)]
                final[i] = table.add(_canonical_json(meta) if meta else "")
        rows = [np.concatenate(pair)
                for pair in zip(rows, (*columns[:5], *final[source].T))]
        n += len(columns[0])
        while len(rows[0]) >= spans_per_block:
            _add_span_group(w, n_groups, [c[:spans_per_block] for c in rows])
            rows = [c[spans_per_block:] for c in rows]
            n_groups += 1
    if len(rows[0]):
        _add_span_group(w, n_groups, rows)
        n_groups += 1
    w.add_kv("spans/count", n)
    w.add_kv("spans/groups", n_groups)
    offsets, blob = table.blocks()
    w.add_block("strings/offsets", offsets)
    w.add_block("strings/blob", blob)
    if registry is not None:
        stats = w.stats()
        registry.inc("telemetry.rprt_bytes_written", stats["stored_bytes"])
        registry.set("telemetry.rprt_compress_ratio", stats["ratio"])
        otherdata = dict(otherdata, metrics=registry.as_dict())
    w.add_kv("trace/otherdata", otherdata)
    w.add_kv("trace/display_time_unit", "ms")
    w.add_kv("producer", "repro")
    w.add_kv("block_codec", (block_codec or "none").lower())
    return w.write(path)


def write_trace_rprt(tracer, path, elapsed: Optional[float] = None,
                     block_codec: str = DEFAULT_BLOCK_CODEC,
                     spans_per_block: int = SPANS_PER_BLOCK) -> dict:
    """Export a tracer's spans + metrics registry to an RPRT container.

    The container's own write statistics are dogfooded into the
    embedded metrics dump (``telemetry.rprt_bytes_written`` counter,
    ``telemetry.rprt_compress_ratio`` gauge) *before* metadata
    serialization, so the file self-describes its compression win.
    Returns the writer statistics dict.
    """
    return write_span_groups(path, *exported_spans(tracer, elapsed),
                             block_codec, spans_per_block,
                             registry=tracer.metrics)
