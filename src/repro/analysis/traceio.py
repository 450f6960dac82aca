"""Format-agnostic, streamed ingestion of exported traces.

Every consumer of an on-disk trace — the sanitizer (``repro check
--trace``), the critical-path explainer (``repro explain --trace``) and
:class:`~repro.analysis.profile.CommProfile` — goes through this one
module, so each of them accepts either format transparently:

* **Chrome-trace JSON** (``repro trace --format json``, the default
  export) — parsed *incrementally*: the ``traceEvents`` array is
  decoded one event at a time from a bounded read buffer, never
  ``json.loads``-ing the whole document, so peak memory on a
  multi-gigabyte trace is the events you keep, not the text you read.
* **RPRT** (``repro trace --format rprt``) — the binary container of
  :mod:`repro.analysis.rprt`, streamed block by block off the mmap.

Format detection is by magic bytes, never file extension.

:func:`convert` translates between the two losslessly: JSON -> RPRT ->
JSON is byte-identical for traces produced by this repository's
exporter, and RPRT -> JSON -> RPRT is bit-stable (the round-trip tests
pin both).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.analysis.rprt import (DEFAULT_BLOCK_CODEC, RprtError, RprtReader,
                                 _trace_writer, is_rprt)
from repro.sim.trace import Trace

__all__ = ["trace_format", "iter_chrome_file_events", "iter_trace_records",
           "open_trace", "load_trace_records", "read_otherdata", "convert"]

_CHUNK = 1 << 16


def trace_format(path) -> str:
    """``"rprt"`` or ``"json"``, detected from the file's magic."""
    return "rprt" if is_rprt(path) else "json"


# -- streamed Chrome-trace JSON ---------------------------------------------

def iter_chrome_file_events(path) -> Iterator[dict]:
    """Yield the events of a Chrome-trace JSON file one at a time.

    The decoder keeps only a bounded window of text in memory: chunks
    are appended until one more event parses, then the consumed prefix
    is dropped.  The exporter writes ``traceEvents`` as the last
    top-level key (``sort_keys``), so the preamble scanned to find it is
    just ``displayTimeUnit`` + ``otherData``.
    """
    decoder = json.JSONDecoder()
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        # Locate the start of the traceEvents array.
        start = -1
        while True:
            idx = buf.find('"traceEvents"')
            if idx >= 0:
                start = buf.find("[", idx)
                if start >= 0:
                    break
            chunk = fh.read(_CHUNK)
            if not chunk:
                raise ValueError(f"{path}: no traceEvents array found")
            # Keep enough tail to span a key split across chunks.
            if idx < 0 and len(buf) > 2 * _CHUNK:
                buf = buf[-len('"traceEvents"'):]
            buf += chunk
        buf = buf[start + 1:]
        while True:
            buf = buf.lstrip()
            while not buf:
                chunk = fh.read(_CHUNK)
                if not chunk:
                    raise ValueError(f"{path}: unterminated traceEvents array")
                buf = chunk.lstrip()
            if buf[0] == "]":
                return
            if buf[0] == ",":
                buf = buf[1:]
                continue
            try:
                event, end = decoder.raw_decode(buf)
            except json.JSONDecodeError:
                chunk = fh.read(_CHUNK)
                if not chunk:
                    raise ValueError(f"{path}: truncated event in "
                                     f"traceEvents") from None
                buf += chunk
                continue
            yield event
            buf = buf[end:]


def read_otherdata(path) -> dict:
    """The trace's ``otherData`` dict (metrics registry dump + elapsed),
    from either format, without loading the events."""
    if is_rprt(path):
        with RprtReader(path) as r:
            return r.otherdata()
    # The exporter emits otherData before traceEvents (sorted keys), so
    # scanning for its value stays within the small preamble.
    decoder = json.JSONDecoder()
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        while True:
            idx = buf.find('"otherData"')
            if idx >= 0:
                start = buf.find("{", idx)
                if start >= 0:
                    while True:
                        try:
                            other, _ = decoder.raw_decode(buf[start:])
                            return other
                        except json.JSONDecodeError:
                            chunk = fh.read(_CHUNK)
                            if not chunk:
                                raise ValueError(
                                    f"{path}: truncated otherData") from None
                            buf += chunk
            chunk = fh.read(_CHUNK)
            if not chunk:
                return {}
            buf += chunk


class _ChromeEventParser:
    """Stateful M-event table + X-event -> TraceRecord conversion (the
    logic the sanitizer historically applied to a whole document)."""

    def __init__(self):
        self.process_names: dict[int, str] = {}
        self.thread_names: dict[tuple[int, int], str] = {}

    def feed(self, ev: dict):
        """Returns a TraceRecord for an X event, None otherwise."""
        from repro.sim.trace import TraceRecord

        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                self.process_names[ev["pid"]] = ev["args"]["name"]
            elif ev.get("name") == "thread_name":
                self.thread_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
            return None
        if ph != "X":
            return None
        pid = ev["pid"]
        pname = self.process_names.get(pid, "")
        tname = self.thread_names.get((pid, ev["tid"]), "main")
        if pname == "network":
            rank, track = None, f"link:{tname}"
        elif pname.startswith("rank "):
            rank, track = int(pname[5:]), tname
        else:  # "sim" (unattributed)
            rank, track = None, tname
        args = dict(ev.get("args", {}))
        span_id = int(args.pop("span_id", 0))
        parent_id = args.pop("parent_id", None)
        t0 = ev["ts"] / 1e6
        t1 = (ev["ts"] + ev["dur"]) / 1e6
        category = ev.get("cat", "")
        label = ev["name"] if ev["name"] != category else ""
        return TraceRecord(
            t_start=t0, t_end=t1, category=category, label=label,
            meta=args, rank=rank, track=track, span_id=span_id,
            parent_id=int(parent_id) if parent_id is not None else None)


def iter_trace_records(path) -> Iterator:
    """Stream :class:`~repro.sim.trace.TraceRecord` objects from an
    exported trace in either format.  This is the shared iterator every
    file-fed analysis consumes; both formats decode timestamps
    identically (stored microseconds / 1e6), so downstream findings do
    not depend on which container the trace came from."""
    if is_rprt(path):
        with RprtReader(path) as r:
            yield from r.spans()
        return
    parser = _ChromeEventParser()
    for ev in iter_chrome_file_events(path):
        rec = parser.feed(ev)
        if rec is not None:
            yield rec


@contextmanager
def open_trace(path):
    """``with open_trace(path) as (other, records)``: a trace file's
    ``otherData`` dict and its record stream (as
    :func:`iter_trace_records`) — an RPRT container is opened, mapped
    and header-checked once for both."""
    if is_rprt(path):
        with RprtReader(path) as r:
            yield r.otherdata(), r.spans()
    else:
        yield read_otherdata(path), iter_trace_records(path)


def load_trace_records(path) -> Trace:
    """Materialize a trace file as the :class:`~repro.sim.trace.Trace`
    every index-building analysis reads."""
    return Trace(iter_trace_records(path))


# -- conversion --------------------------------------------------------------

def _json_to_rprt(src, dst, block_codec: str) -> dict:
    from repro.sim.trace import SpanColumns

    parser = _ChromeEventParser()
    spans = SpanColumns()
    # Timestamps go in as the file spells them (already in the
    # exporter's microsecond units) — no second rounding pass.
    ts_us, dur_us = [], []
    for ev in iter_chrome_file_events(src):
        rec = parser.feed(ev)
        if rec is None:
            continue
        ts_us.append(float(ev["ts"]))
        dur_us.append(float(ev["dur"]))
        spans.append(rec.t_start, rec.t_end, rec.category, rec.label,
                     rec.meta, rec.rank, rec.track, rec.span_id,
                     rec.parent_id)

    # The converter preserves otherData verbatim (no re-stamping of
    # telemetry metrics) so JSON -> RPRT -> JSON round-trips exactly.
    other = read_otherdata(src)
    w, stats = _trace_writer(ts_us, dur_us, spans, np.arange(len(spans)),
                             other, block_codec=block_codec)
    stats.update(w.write(dst))
    return stats


def _rprt_to_json(src, dst) -> dict:
    from repro.analysis.export import write_chrome_json

    with RprtReader(src) as r:
        with open(dst, "w") as fh:
            n = write_chrome_json(fh, r.otherdata(), r.iter_chrome_events())
    return {"events": n}


def convert(src, dst, to: Optional[str] = None,
            block_codec: str = DEFAULT_BLOCK_CODEC) -> dict:
    """Convert a trace between Chrome JSON and RPRT.

    The target format is ``to`` ("json"/"rprt"), or inferred from the
    ``dst`` extension, defaulting to the opposite of the source format.
    Returns a stats dict describing the written file.
    """
    src, dst = Path(src), Path(dst)
    if not src.exists():
        raise RprtError(f"{src}: no such trace file")
    src_fmt = trace_format(src)
    if to is None:
        ext = dst.suffix.lower().lstrip(".")
        if ext in ("json", "rprt"):
            to = ext
        else:
            to = "json" if src_fmt == "rprt" else "rprt"
    if to == src_fmt:
        raise RprtError(f"conversion target {to!r} equals the source "
                        f"format of {src}")
    if to == "rprt":
        return dict(_json_to_rprt(src, dst, block_codec), format="rprt")
    return dict(_rprt_to_json(src, dst), format="json")
