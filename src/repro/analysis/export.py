"""Chrome-trace / Perfetto export of structured traces.

Converts a :class:`~repro.sim.trace.Tracer`'s records into the Chrome
Trace Event JSON format (the ``traceEvents`` array of complete-``"X"``
events), viewable in ``chrome://tracing`` or https://ui.perfetto.dev:

* one *process* (pid) per MPI rank, named ``rank <r>``;
* one *thread* (tid) per track within the rank — ``main`` for
  protocol/pipeline steps, ``gpu`` for driver and memory operations,
  ``stream<k>`` for each CUDA stream;
* one shared ``network`` process whose threads are the fabric links;
* timestamps are **simulated** microseconds, so two same-seed runs
  export byte-identical traces (the determinism tests assert this).

Span hierarchy (``span_id`` / ``parent_id``) and the raw meta ride along
in each event's ``args``; the run's metrics registry is embedded under
``otherData.metrics``.

This module also owns the *exported form* of a trace, the currency of
every trace file reader, writer and converter: span-column groups
(:func:`span_group`) plus the ``otherData`` dict.  :func:`exported_form`
is the one place a live tracer takes that form — the only export sort,
the only :func:`chrome_time` rounding, the only ``otherData`` — and
:func:`chrome_events` the one place it becomes Chrome events, for the
streaming :func:`write_chrome_trace` (the document is never
materialized, yet the bytes are those of ``json.dump`` of
``{"displayTimeUnit": "ms", "otherData": ..., "traceEvents": [...]}``
with ``indent=1, sort_keys=True``) and for an RPRT container converted
to JSON alike.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = ["write_chrome_trace",
           "NETWORK_PID", "UNATTRIBUTED_PID",
           "pid_of", "chrome_metadata_events", "chrome_time",
           "json_safe_meta", "span_group", "exported_form", "exported_spans",
           "chrome_events",
           "write_chrome_json", "write_chrome_groups"]

#: pid hosting one thread per fabric link
NETWORK_PID = 1_000_000
#: pid for spans with neither a rank nor a link track
UNATTRIBUTED_PID = 1_000_001


def pid_of(rank: Optional[int], track: Optional[str]) -> tuple[int, str]:
    """Map a span's (rank, track) attribution to its (pid, thread name)
    in the exported trace."""
    track = track or "main"
    if track.startswith("link:"):
        return NETWORK_PID, track[5:]
    if rank is not None:
        return int(rank), track
    return UNATTRIBUTED_PID, track


def _json_safe(value):
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return repr(value)


def json_safe_meta(meta: dict) -> dict:
    """A span's meta dict reduced to JSON-clean values, keys sorted —
    exactly the form the exporter writes into an event's ``args``."""
    return {k: _json_safe(v) for k, v in sorted(meta.items())}


def chrome_time(t_seconds: float) -> float:
    """Simulated seconds -> the exported microsecond value (the 1e-6 us
    rounding makes the JSON human-diffable without losing ordering)."""
    return round(t_seconds * 1e6, 6)


def _process_name(pid: int) -> str:
    if pid == NETWORK_PID:
        return "network"
    if pid == UNATTRIBUTED_PID:
        return "sim"
    return f"rank {pid}"


def chrome_metadata_events(pairs: Iterable[tuple[int, str]]):
    """Deterministic pid/tid table plus the ``M`` metadata events for a
    set of (pid, thread-name) pairs: "main" first within each pid, then
    alphabetical, so track 0 is always the protocol lane.  Returns
    ``(tids, events)``."""
    ordered = sorted(set(pairs), key=lambda pt: (pt[0], pt[1] != "main", pt[1]))
    tids: dict[tuple[int, str], int] = {}
    per_pid_count: dict[int, int] = {}
    for pid, name in ordered:
        tids[(pid, name)] = per_pid_count.get(pid, 0)
        per_pid_count[pid] = per_pid_count.get(pid, 0) + 1

    events: list[dict] = []
    for pid in sorted(per_pid_count):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": _process_name(pid)}})
    for (pid, name), tid in sorted(tids.items(), key=lambda kv: (kv[0][0], kv[1])):
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                       "args": {"name": name}})
    return tids, events


def span_group(spans, ts_us, dur_us, order=slice(None)) -> tuple:
    """Rows ``order`` of a :class:`~repro.sim.trace.SpanColumns` as one
    span-column group in *exported form*, ``(columns, strings, metas)``
    — what every decoder yields and every encoder consumes.

    ``columns`` are the nine :data:`~repro.sim.trace.SPAN_SCHEMA`
    columns as arrays, the two times being ``ts_us``/``dur_us`` (the
    file's microseconds, already in row order); category, label and
    track index ``strings``, meta indexes ``metas``, whose dicts are
    JSON-safe.  A ``None`` track is ``main`` and a label equal to its
    category is the empty label, the one the Chrome ``name`` spells as
    the category."""
    def column(name):
        return np.asarray(getattr(spans, name))[order]

    strings = ["main" if s is None else s for s in spans.strings] + [""]
    category, label = column("category"), column("label")
    columns = [np.asarray(ts_us, dtype="f8"), np.asarray(dur_us, dtype="f8"),
               column("span_id"), column("parent_id"), column("rank"),
               category, np.where(category == label, len(strings) - 1, label),
               column("track"), column("meta")]
    return columns, strings, [json_safe_meta(m) for m in spans.metas]


def exported_form(tracer, elapsed: Optional[float] = None) -> tuple:
    """A live tracer as ``(otherData, groups)``, the pair a trace file
    opens as: its spans are one :func:`span_group` in ``(t_start, t_end,
    span_id)`` order with times rounded by :func:`chrome_time`, and
    ``groups()`` starts a pass over it."""
    other, groups = exported_spans(tracer, elapsed)
    other["metrics"] = tracer.metrics.as_dict()
    return other, groups


def exported_spans(tracer, elapsed: Optional[float] = None) -> tuple:
    """:func:`exported_form` without the metrics dump in ``otherData``,
    for a writer that dumps the registry itself once it has stamped its
    own statistics into it (:func:`~repro.analysis.rprt.write_trace_rprt`)."""
    spans = tracer.columns
    t_start, t_end = np.asarray(spans.t_start), np.asarray(spans.t_end)
    order = np.lexsort((np.asarray(spans.span_id), t_end, t_start))
    # chrome_time is Python's round(); numpy's differs in the last bit.
    starts, ends = t_start[order].tolist(), t_end[order].tolist()
    group = span_group(spans, [chrome_time(t) for t in starts],
                       [chrome_time(b - a) for a, b in zip(starts, ends)],
                       order)
    other = {} if elapsed is None else {"elapsed_seconds": elapsed}
    return other, lambda: (group,)


def chrome_events(groups) -> Iterator[dict]:
    """The Chrome-trace events of a trace's column groups, one at a
    time: the ``M`` lane table, then an ``X`` event per row.  Two passes
    of ``groups()``, the first to lay out the lanes."""
    seen = set()
    for columns, strings, _ in groups():
        ids = set(zip(columns[4].tolist(), columns[7].tolist()))
        seen.update((r, strings[t]) for r, t in ids)
    lanes = {(r, t): pid_of(None if r < 0 else r, t) for r, t in seen}
    tids, meta_events = chrome_metadata_events(lanes.values())
    yield from meta_events
    for columns, strings, metas in groups():
        rows = zip(*(col.tolist() for col in columns))
        for ts, dur, span_id, parent, r, c, lb, tr, m in rows:
            lane = lanes[(r, strings[tr])]
            args = {"span_id": span_id}
            if parent >= 0:
                args["parent_id"] = parent
            args.update(metas[m])
            category = strings[c]
            yield {
                "name": strings[lb] or category,
                "cat": category,
                "ph": "X",
                "pid": lane[0],
                "tid": tids[lane],
                "ts": ts,
                "dur": dur,
                "args": args,
            }


def write_chrome_json(fh, other: dict, events: Iterable[dict]) -> int:
    """Stream a Chrome-trace document to a text file handle, byte-for-
    byte what ``json.dump(doc, fh, indent=1, sort_keys=True)`` plus a
    trailing newline would produce, without ever holding the event list.
    Returns the number of events written.

    ``json`` never emits a raw newline inside a serialized value (they
    are escaped), so re-indenting an embedded dump is a plain string
    replace.
    """
    fh.write('{\n "displayTimeUnit": "ms",\n "otherData": ')
    fh.write(json.dumps(other, indent=1, sort_keys=True).replace("\n", "\n "))
    fh.write(',\n "traceEvents": [')
    n = 0
    for ev in events:
        fh.write("," if n else "")
        fh.write("\n  ")
        fh.write(json.dumps(ev, indent=1, sort_keys=True)
                 .replace("\n", "\n  "))
        n += 1
    fh.write("\n ]\n}\n" if n else "]\n}\n")
    return n


def write_chrome_groups(path, other: dict, groups) -> dict:
    """The JSON encoder: stream a trace (``groups`` as for
    :func:`chrome_events`) to ``path`` as a Chrome-trace document."""
    with open(path, "w") as fh:
        return {"events": write_chrome_json(fh, other, chrome_events(groups))}


def write_chrome_trace(tracer, path, elapsed: Optional[float] = None) -> None:
    """Stream the Chrome-trace JSON to ``path``.

    Events are serialized one at a time (peak memory is one event, not
    the document); :func:`write_chrome_json` says which bytes.
    """
    write_chrome_groups(path, *exported_form(tracer, elapsed))
