"""Format-agnostic, streamed ingestion of exported traces.

Every consumer of an on-disk trace — the sanitizer (``repro check
--trace``), the critical-path explainer (``repro explain --trace``) and
:class:`~repro.analysis.profile.CommProfile` — goes through this one
module, so each of them accepts either format transparently.  Format
detection is by magic bytes, never file extension, and there is one
decoder per format, both yielding the same thing, span-column groups in
exported form (:func:`repro.analysis.export.span_group`):

* **Chrome-trace JSON** (``repro trace --format json``, the default
  export) — :func:`chrome_groups` over :func:`iter_chrome_file_events`,
  which decodes the ``traceEvents`` array one event at a time from a
  bounded read buffer, never ``json.loads``-ing the whole document, so
  peak memory on a multi-gigabyte trace is one group, not the text.  A
  malformed event is a ``ValueError`` naming the file and the event.
* **RPRT** (``repro trace --format rprt``) —
  :meth:`RprtReader.span_groups <repro.analysis.rprt.RprtReader.span_groups>`,
  block by block off the mmap.  A malformed container is an
  :class:`~repro.analysis.rprt.RprtError`.

:func:`~repro.analysis.rprt.span_records` turns either decoder's groups
into records, and :func:`convert` hands them to the other format's
encoder: JSON -> RPRT -> JSON is byte-identical for traces produced by
this repository's exporter, and RPRT -> JSON -> RPRT is bit-stable (the
round-trip tests pin both).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.export import span_group, write_chrome_groups
from repro.analysis.rprt import (DEFAULT_BLOCK_CODEC, SPANS_PER_BLOCK,
                                 RprtError, RprtReader, is_rprt, span_records,
                                 write_span_groups)
from repro.sim.trace import SpanColumns, Trace

__all__ = ["trace_format", "iter_chrome_file_events", "chrome_groups",
           "iter_trace_records", "open_trace", "load_trace_records",
           "read_otherdata", "convert"]

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


def chrome_groups(events, where) -> Iterator[tuple]:
    """The JSON decoder: Chrome-trace events (``M`` lane names before
    the ``X`` events they name, as the exporter writes them) become
    exported-form column groups of :data:`SPANS_PER_BLOCK` rows, in
    file order, timestamps as the file spells them.  An event a span
    cannot be read from is a ``ValueError`` naming ``where``, the
    event's index and what is wrong with it."""
    process_names: dict[int, str] = {}
    thread_names: dict[tuple[int, int], str] = {}
    spans = SpanColumns()  # its two time columns hold ``ts`` and ``dur``
    for i, ev in enumerate(events):
        try:
            ph = ev.get("ph")
            if ph == "M":
                if ev.get("name") == "process_name":
                    process_names[ev["pid"]] = ev["args"]["name"]
                elif ev.get("name") == "thread_name":
                    thread_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
            if ph != "X":
                continue
            pid = ev["pid"]
            pname = process_names.get(pid, "")
            tname = thread_names.get((pid, ev["tid"]), "main")
            if pname == "network":
                rank, track = None, f"link:{tname}"
            elif pname.startswith("rank "):
                rank, track = int(pname[5:]), tname
            else:  # "sim" (unattributed)
                rank, track = None, tname
            args = dict(ev.get("args", {}))
            span_id = int(args.pop("span_id", 0))
            parent_id = args.pop("parent_id", None)
            spans.append(ev["ts"], ev["dur"], ev.get("cat", ""), ev["name"],
                         args, rank, track, span_id,
                         None if parent_id is None else int(parent_id))
        except KeyError as exc:
            raise ValueError(f"{where}: event {i} has no {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ValueError(f"{where}: event {i}: {exc}") from None
        if len(spans) == SPANS_PER_BLOCK:
            yield span_group(spans, spans.t_start, spans.t_end)
            spans = SpanColumns()
    if len(spans):
        yield span_group(spans, spans.t_start, spans.t_end)


@contextmanager
def _open_groups(path):
    """``with _open_groups(path) as (other, groups)``: a trace file's
    ``otherData`` dict and its decoder — ``groups()`` starts a pass
    over the file's column groups.  An RPRT container is opened, mapped
    and header-checked once for both."""
    if is_rprt(path):
        with RprtReader(path) as r:
            yield r.otherdata(), r.span_groups
    else:
        yield read_otherdata(path), lambda: chrome_groups(
            iter_chrome_file_events(path), path)


@contextmanager
def open_trace(path):
    """``with open_trace(path) as (other, records)``: a trace file's
    ``otherData`` dict and its stream of
    :class:`~repro.sim.trace.TraceRecord` objects.  Both decoders yield
    the same column groups, so downstream findings do not depend on
    which container the trace came from."""
    with _open_groups(path) as (other, groups):
        yield other, span_records(groups())


def iter_trace_records(path) -> Iterator:
    """Stream the records of an exported trace in either format: the
    shared iterator every file-fed analysis consumes."""
    with open_trace(path) as (_, records):
        yield from records


def load_trace_records(path) -> Trace:
    """Materialize a trace file as the :class:`~repro.sim.trace.Trace`
    every index-building analysis reads."""
    return Trace(iter_trace_records(path))


# -- conversion --------------------------------------------------------------

def convert(src, dst, to: Optional[str] = None,
            block_codec: str = DEFAULT_BLOCK_CODEC) -> dict:
    """Convert a trace between Chrome JSON and RPRT: the source
    format's decoder feeding the target format's encoder, ``otherData``
    carried over verbatim (no re-stamping of telemetry metrics).

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
    encode = {"json": write_chrome_groups,
              "rprt": partial(write_span_groups, block_codec=block_codec)}[to]
    with _open_groups(src) as (other, groups):
        return dict(encode(dst, other, groups), format=to)
