"""Structured tracing of simulation activity.

A :class:`Tracer` attaches to a :class:`~repro.sim.engine.Simulator` and
records *spans* — named intervals with a category — that the rest of the
stack uses to produce latency breakdowns (compression kernel time, wire
time, memory allocation time, ...), mirroring the paper's Figures 6, 8
and 10.

Spans are **attributed and hierarchical**:

* ``rank`` — which simulated MPI rank (== GPU) the activity belongs to;
* ``track`` — the lane within that rank ("main" for protocol/CPU work,
  "gpu" for driver/memory operations, "stream<k>" for kernels) or, for
  wire activity, ``"link:<label>"``;
* ``span_id`` / ``parent_id`` — every span knows which open span
  enclosed it, so a trace is a forest per rank: a ``pipeline`` step
  contains the kernels, copies and pool operations it caused.

Parenting is inferred from a *span stack per simulated process*: the
currently-open span of the active :class:`~repro.sim.engine.Process` is
the parent of anything recorded while it is open.  Processes spawned
while a span is open inherit it as their base parent (a compression
kernel launched on a worker process still nests under the
``sender_prepare`` step that launched it).

Two APIs coexist:

* ``begin()`` / ``end()`` for hierarchical steps that enclose other work
  across ``yield``\\ s — the :class:`SpanHandle` ``begin()`` returns is
  itself the context manager :func:`trace_scope` hands to a ``with``;
* ``span(t0, t1, ...)`` for retroactive leaf records — the pattern used
  throughout the device and network layers.

A :class:`~repro.analysis.metrics.MetricsRegistry` rides along on
``tracer.metrics``; instrumentation sites update both from the same
measurements, so metrics are provably consistent with the spans (the
property tests assert exactly that).

Closed spans are held as **columns** (:class:`SpanColumns`), the layout
the RPRT container stores: recording a span appends nine numbers and
returns nothing, and :class:`TraceRecord` objects exist only once
somebody reads ``tracer.records``.

Reading is a separate object: :class:`Trace` (``Trace.of(tracer)``, or
:func:`repro.analysis.traceio.load_trace_records` for a file) holds the
records in one order plus the views the sanitizer, the happens-before
engine and the critical-path analyzer share, each derived in one place.
"""

from __future__ import annotations

import itertools
import marshal
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Optional

__all__ = ["TraceRecord", "SpanColumns", "Tracer", "SpanHandle",
           "trace_scope", "Trace", "Message", "CURRENT",
           "SPAN_SCHEMA", "SPAN_COLUMNS", "records_from_columns"]

#: default ``parent=`` of :meth:`Tracer.span`: the innermost span open
#: in the active process.  Work recorded from a scheduler callback runs
#: in no process, so it passes the handle its rank had open when the
#: operation was issued (``tracer.current_span()`` at that time).
CURRENT = object()


@dataclass(slots=True)
class TraceRecord:
    """A closed span on the simulation timeline.

    A value object: records decoded from one column store share the
    ``meta`` dict of equal metas, so treat it as read-only.  (Not
    ``frozen``: a frozen dataclass spends five times as long in
    ``__init__``, and every reader of a trace builds one per span.)"""

    t_start: float
    t_end: float
    category: str
    label: str
    meta: dict = field(default_factory=dict)
    rank: Optional[int] = None
    track: Optional[str] = None
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def key(self) -> tuple:
        """Fully-ordered structural identity (for determinism tests)."""
        return (
            self.t_start, self.t_end, self.category, self.label,
            self.rank, self.track, self.span_id, self.parent_id,
            tuple(sorted((k, repr(v)) for k, v in self.meta.items())),
        )


#: the span schema, shared by :class:`SpanColumns` and the RPRT span
#: groups — per column: its name here, its RPRT block name (the file
#: stores start and duration in microseconds), the ``array`` typecode
#: and the on-disk dtype.  ``parent_id`` and ``rank`` spell "none" -1.
SPAN_SCHEMA = (
    ("t_start", "ts_us", "d", "f8"),
    ("t_end", "dur_us", "d", "f8"),
    ("span_id", "span_id", "q", "i8"),
    ("parent_id", "parent_id", "q", "i8"),
    ("rank", "rank", "i", "i4"),
    ("category", "category", "I", "u4"),  # three string ids ...
    ("label", "label", "I", "u4"),
    ("track", "track", "I", "u4"),
    ("meta", "meta", "I", "u4"),          # ... and a meta id
)
SPAN_COLUMNS = tuple(name for name, _, _, _ in SPAN_SCHEMA)


def records_from_columns(t_start, t_end, span_id, parent_id, rank, category,
                         label, track, meta, strings, metas) -> list:
    """The :class:`TraceRecord` of every row of one column group.

    The nine columns are parallel sequences of Python numbers in
    :data:`SPAN_COLUMNS` order; ``strings[id]`` and ``metas[id]``
    resolve the id columns.  Rows with the same meta id share its dict.
    """
    return [TraceRecord(t0, t1, strings[c], strings[lb], metas[m],
                        None if r < 0 else r, strings[tr], sid,
                        None if p < 0 else p)
            for t0, t1, sid, p, r, c, lb, tr, m
            in zip(t_start, t_end, span_id, parent_id, rank, category, label,
                   track, meta)]


#: the value types whose equal-and-same-``marshal``-image instances
#: export the same JSON (and tuples of them)
_PLAIN = frozenset({int, float, bool, str, type(None)})


def _plain(values: tuple) -> bool:
    """Is every value of exactly a :data:`_PLAIN` type, or a tuple of
    such values?  (A plain loop: the fastest spelling at the two to
    five values a meta has.)"""
    for v in values:
        t = type(v)
        if t not in _PLAIN and not (t is tuple and _plain(v)):
            return False
    return True


def _meta_key(meta: dict) -> Optional[tuple]:
    """What two metas must share to share one table entry — the keys in
    the same order and the same ``marshal`` image of the values — or
    ``None`` for a meta that gets an entry of its own.

    Equality would merge ``1``, ``1.0`` and ``True`` (equal and
    hash-equal) or ``0.0`` and ``-0.0``, at any depth of a tuple, though
    their exported JSON differs; marshal (version 2: no back-references,
    no interning flags) writes the type of every builtin value and a
    float's bits, in C.  It writes anything else that has a buffer — a
    numpy scalar — as untyped raw bytes, so ``np.bool_(True)`` and
    ``np.uint8(1)`` would share an image and export ``true`` and ``1``:
    only metas of :data:`_PLAIN` values are keyed.  That also leaves out
    the unhashable (list, dict, ndarray) and the unmarshallable."""
    values = tuple(meta.values())
    if not _plain(values):
        return None
    return tuple(meta), marshal.dumps(values, 2)


class _Interned(dict):
    """value -> dense id, assigned at first sight; ``values[id]`` is the
    inverse."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: list = []

    def __missing__(self, value) -> int:
        i = self[value] = len(self.values)
        self.values.append(value)
        return i


class SpanColumns:
    """Closed spans as typed columns, one row per span in recording
    order — :data:`SPAN_COLUMNS`, the layout RPRT stores.

    Each column is an ``array`` of its :data:`SPAN_SCHEMA` typecode.
    ``category``/``label``/``track`` are ids into :attr:`strings` (a
    ``None`` track is interned like a string) and ``meta`` is an id
    into :attr:`metas`, where equal metas share one entry (see
    :func:`_meta_key`) and entry 0 is the empty meta.
    """

    __slots__ = SPAN_COLUMNS + ("_string_id", "_meta_id", "metas", "_row_ids")

    def __init__(self):
        for name, _, typecode, _ in SPAN_SCHEMA:
            setattr(self, name, array(typecode))
        self._string_id = _Interned()
        self._meta_id: dict[tuple, int] = {}
        self.metas: list[dict] = [{}]
        #: key -> the ``(rank, category, label, track, meta)`` ids of
        #: the row :meth:`append_keyed` first appended for it
        self._row_ids: dict = {}

    def __len__(self) -> int:
        return len(self.span_id)

    @property
    def strings(self) -> list:
        """id -> string (or ``None``) of the three string columns."""
        return self._string_id.values

    def append(self, t_start: float, t_end: float, category: str, label: str,
               meta: dict, rank: Optional[int], track: Optional[str],
               span_id: int, parent_id: Optional[int]) -> None:
        """Add one span.  ``meta`` is kept, not copied, when it is the
        first of its kind."""
        m = 0
        if meta:
            key = _meta_key(meta)
            m = None if key is None else self._meta_id.get(key)
            if m is None:
                m = len(self.metas)
                self.metas.append(meta)
                if key is not None:
                    self._meta_id[key] = m
        ids = self._string_id
        self.t_start.append(t_start)
        self.t_end.append(t_end)
        self.span_id.append(span_id)
        self.parent_id.append(-1 if parent_id is None else parent_id)
        self.rank.append(-1 if rank is None else rank)
        self.category.append(ids[category])
        self.label.append(ids[label])
        self.track.append(ids[track])
        self.meta.append(m)

    def append_keyed(self, key, fields, t_start: float, t_end: float,
                     span_id: int, parent_id: Optional[int]) -> None:
        """Add one span whose strings and meta are a function of
        ``key``: at the key's first sight in this table ``fields(key)``
        builds ``(category, label, meta, rank, track)`` and the row goes
        through :meth:`append`; later rows reuse the ids it resolved —
        no meta key, no string lookup.  Equal keys must build identical
        fields.  A meta that :func:`_meta_key` does not share is never
        reused, so every row of such a key is a first sight."""
        ids = self._row_ids.get(key)
        if ids is None:
            category, label, meta, rank, track = fields(key)
            n_metas, n_keyed = len(self.metas), len(self._meta_id)
            self.append(t_start, t_end, category, label, meta, rank, track,
                        span_id, parent_id)
            # a new entry that no meta key names is a meta of its own
            if len(self.metas) == n_metas or len(self._meta_id) > n_keyed:
                self._row_ids[key] = (self.rank[-1], self.category[-1],
                                      self.label[-1], self.track[-1],
                                      self.meta[-1])
            return
        rank, category, label, track, meta = ids
        self.t_start.append(t_start)
        self.t_end.append(t_end)
        self.span_id.append(span_id)
        self.parent_id.append(-1 if parent_id is None else parent_id)
        self.rank.append(rank)
        self.category.append(category)
        self.label.append(label)
        self.track.append(track)
        self.meta.append(meta)

    def records(self, start: int = 0, stop: Optional[int] = None) -> list:
        """Rows ``start:stop`` as :class:`TraceRecord` objects."""
        rows = slice(start, stop)
        return records_from_columns(
            *(getattr(self, name)[rows] for name in SPAN_COLUMNS),
            self.strings, self.metas)


class SpanHandle:
    """An open (not yet recorded) span returned by :meth:`Tracer.begin`,
    and the context manager that ends it: ``with tracer.begin(...)``
    (or :func:`trace_scope`) leaves the span recorded unless the body
    already ended it."""

    __slots__ = ("span_id", "t_start", "category", "label", "rank", "track",
                 "meta", "parent_id", "open", "_ctx", "_tracer")

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.open:
            self._tracer.end(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return (f"<SpanHandle #{self.span_id} {self.category}/{self.label} "
                f"{state} from t={self.t_start:.9f}>")


class Tracer:
    """Collects spans and aggregates by category.

    Spans may overlap (e.g. concurrent kernels on different streams);
    :meth:`total` sums raw durations while :meth:`busy` merges
    overlapping spans of one category into wall-clock occupancy.
    """

    def __init__(self, sim=None):
        from repro.analysis.metrics import MetricsRegistry  # avoid import cycle

        #: the closed spans, in recording order
        self.columns = SpanColumns()
        self._records: list[TraceRecord] = []
        self.metrics = MetricsRegistry()
        self._sim = sim
        #: the simulator's event count when this tracer attached (or
        #: was last cleared)
        self._events_base = sim.event_count if sim is not None else 0
        self._ids = itertools.count(1)
        self._stacks: dict[Any, list[SpanHandle]] = {}
        self._inherited: dict[Any, SpanHandle] = {}
        if sim is not None:
            sim.tracer = self

    @property
    def records(self) -> list[TraceRecord]:
        """The closed spans as :class:`TraceRecord` objects, in
        recording order.  Built from :attr:`columns` at the first read
        and kept; a later read decodes only the rows appended since."""
        recs = self._records
        if len(recs) < len(self.columns):
            recs.extend(self.columns.records(len(recs)))
        return recs

    @property
    def event_count(self) -> int:
        """Events the simulator dispatched since this tracer attached
        or was cleared (0 for a detached tracer)."""
        if self._sim is None:
            return 0
        return self._sim.event_count - self._events_base

    # -- hierarchy machinery ------------------------------------------------
    def _ctx(self):
        """The parenting context: the active simulated process."""
        if self._sim is not None:
            return self._sim._active_process
        return None

    def current_span(self) -> Optional[SpanHandle]:
        """The innermost open span of the active process (or its
        inherited parent), if any."""
        return self._parent_for(self._ctx())

    def _on_process_spawn(self, proc) -> None:
        """Called by :meth:`Simulator.process`: a process spawned while a
        span is open inherits that span as its base parent."""
        parent = self.current_span()
        if parent is not None:
            self._inherited[proc] = parent

    def _on_process_done(self, proc) -> None:
        """Called by the engine when a process finishes: it is never
        the active process again, so nothing can look its entries up."""
        self._inherited.pop(proc, None)
        self._stacks.pop(proc, None)

    def reparent(self, proc, parent: Optional[SpanHandle]) -> None:
        """Make ``parent`` the base parent of ``proc`` in place of the
        spawner's open span — for a process spawned on behalf of a rank
        from outside that rank's own processes."""
        if parent is not None:
            self._inherited[proc] = parent
        else:
            self._inherited.pop(proc, None)

    def _time(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        if self._sim is None:
            raise ValueError("Tracer is not attached to a Simulator; pass t explicitly")
        return self._sim.now

    def _parent_for(self, ctx) -> Optional[SpanHandle]:
        stack = self._stacks.get(ctx)
        if stack:
            for h in reversed(stack):
                if h.open:
                    return h
        inherited = self._inherited.get(ctx)
        if inherited is not None and inherited.open:
            return inherited
        return None

    def begin(self, category: str, label: str = "", *, rank: Optional[int] = None,
              track: Optional[str] = None, t: Optional[float] = None,
              **meta) -> SpanHandle:
        """Open a hierarchical span starting now (or at ``t``)."""
        ctx = self._ctx()
        h = SpanHandle()
        h.span_id = next(self._ids)
        h.t_start = self._time(t)
        h.category = category
        h.label = label
        h.rank = rank
        h.track = track
        h.meta = meta
        parent = self._parent_for(ctx)
        h.parent_id = parent.span_id if parent is not None else None
        h.open = True
        h._ctx = ctx
        h._tracer = self
        stack = self._stacks.get(ctx)
        if stack is None:
            self._stacks[ctx] = [h]
        else:
            stack.append(h)
        return h

    def end(self, handle: Optional[SpanHandle], t: Optional[float] = None,
            **extra_meta) -> None:
        """Close a span opened with :meth:`begin` and record it.

        ``None`` handles are accepted and ignored so call sites can stay
        unconditional when no tracer was attached at begin time.
        """
        if handle is None:
            return
        if not handle.open:
            raise ValueError(f"span {handle.span_id} already ended")
        t_end = self._time(t)
        if t_end < handle.t_start:
            raise ValueError(
                f"span ends before it starts: [{handle.t_start}, {t_end}]")
        handle.open = False
        stack = self._stacks.get(handle._ctx)
        if stack:
            # Spans almost always close LIFO; fall back to a scan only
            # for out-of-order closes.
            if stack[-1] is handle:
                stack.pop()
            elif handle in stack:
                stack.remove(handle)
            if not stack:
                del self._stacks[handle._ctx]
        # The handle owns its meta dict (built fresh in begin()), so the
        # columns can take it without a defensive copy.
        meta = handle.meta
        if extra_meta:
            meta.update(extra_meta)
        self.columns.append(handle.t_start, t_end, handle.category,
                            handle.label, meta, handle.rank, handle.track,
                            handle.span_id, handle.parent_id)

    def span(self, t_start: float, t_end: float, category: str, label: str = "",
             *, rank: Optional[int] = None, track: Optional[str] = None,
             parent: Any = CURRENT, **meta) -> None:
        """Record a closed interval (leaf span).  The parent is the
        innermost span still open in the current process, or the given
        ``parent`` handle if that is still open."""
        if t_end < t_start:
            raise ValueError(f"span ends before it starts: [{t_start}, {t_end}]")
        if parent is CURRENT:
            parent = self.current_span()
        elif parent is not None and not parent.open:
            parent = None
        self.columns.append(t_start, t_end, category, label, meta, rank,
                            track, next(self._ids),
                            parent.span_id if parent else None)

    def keyed_span(self, key, fields, t_start: float, t_end: float,
                   parent: Any = CURRENT) -> None:
        """:meth:`span` for a leaf whose category, label, meta, rank and
        track are a function of ``key`` (``fields(key)`` builds them,
        see :meth:`SpanColumns.append_keyed`): a repeat key costs one
        dict probe and nine appends.  The memo belongs to
        :attr:`columns`, so :meth:`clear` drops it."""
        if t_end < t_start:
            raise ValueError(f"span ends before it starts: [{t_start}, {t_end}]")
        if parent is CURRENT:
            parent = self.current_span()
        elif parent is not None and not parent.open:
            parent = None
        self.columns.append_keyed(key, fields, t_start, t_end, next(self._ids),
                                  parent.span_id if parent else None)

    # -- aggregation --------------------------------------------------------
    def busy(self, category: str) -> float:
        """Wall-clock time during which >= 1 span of ``category`` was open."""
        spans = sorted(
            ((r.t_start, r.t_end) for r in self.records if r.category == category)
        )
        out = 0.0
        cur_s: Optional[float] = None
        cur_e = 0.0
        for s, e in spans:
            if cur_s is None:
                cur_s, cur_e = s, e
            elif s <= cur_e:
                cur_e = max(cur_e, e)
            else:
                out += cur_e - cur_s
                cur_s, cur_e = s, e
        if cur_s is not None:
            out += cur_e - cur_s
        return out

    def breakdown(self) -> dict[str, float]:
        """Category -> summed duration, for latency breakdown figures."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.category] = out.get(r.category, 0.0) + r.duration
        return out

    def clear(self) -> None:
        self.columns = SpanColumns()
        self._records.clear()
        if self._sim is not None:
            self._events_base = self._sim.event_count
        self._stacks.clear()
        self._inherited.clear()
        self.metrics.clear()


class Message:
    """One rendezvous message in a trace: the ``pipeline`` spans that
    carry its ``seq`` — both protocol sides of the seven-step handshake,
    every pipelined part and every retry attempt — in trace order."""

    __slots__ = ("seq", "spans", "steps")

    def __init__(self, seq: int, spans: list):
        self.seq = seq
        self.spans: list[TraceRecord] = spans
        #: step label -> its spans, in trace order
        self.steps: dict[str, list[TraceRecord]] = {}
        for r in spans:
            self.steps.setdefault(r.label, []).append(r)

    def first(self, label: str) -> Optional[TraceRecord]:
        """The earliest span of one step, if the trace has any."""
        group = self.steps.get(label)
        return group[0] if group else None

    def wire_for(self, complete: TraceRecord) -> Optional[TraceRecord]:
        """The ``wire_transfer`` a ``receiver_complete`` span consumed:
        the one of the same ``(part, attempt)`` — a pipelined message
        lands part by part and a retransmission lands again — or, when
        the trace names no such span, the earliest-ending transfer (the
        weakest claim: nothing completes before any data arrived)."""
        wires = self.steps.get("wire_transfer", ())
        key = (complete.meta.get("part"), complete.meta.get("attempt"))
        for w in wires:
            if (w.meta.get("part"), w.meta.get("attempt")) == key:
                return w
        return min(wires, key=lambda r: (r.t_end, r.span_id), default=None)


class Trace:
    """The read side of a trace: the spans in one order, and every view
    the analyses share — each defined here once, built at first use and
    kept.

    ``records`` are in ``(t_start, t_end, span_id)`` order (*trace
    order*); every view is built from them and lists spans in that
    order.  A ``Trace`` is a snapshot: spans a live tracer records
    afterwards are not in it.
    """

    def __init__(self, records):
        #: the spans in the order the source listed them (recording
        #: order for a live tracer) — the order the sanitizer reports
        #: per-span findings in; nothing else may depend on it
        self.listed: list[TraceRecord] = list(records)
        self.records: list[TraceRecord] = sorted(
            self.listed, key=lambda r: (r.t_start, r.t_end, r.span_id))

    @classmethod
    def of(cls, source) -> "Trace":
        """``source`` as a :class:`Trace`: itself if it is one, else
        built from its ``.records`` (a :class:`Tracer`, a
        ``ClusterResult.tracer``) or from a bare iterable of records."""
        if isinstance(source, cls):
            return source
        return cls(getattr(source, "records", source))

    # -- the span tree -------------------------------------------------------
    @cached_property
    def by_id(self) -> dict[int, TraceRecord]:
        """span_id -> record."""
        return {r.span_id: r for r in self.records}

    @cached_property
    def children(self) -> dict[Optional[int], list[TraceRecord]]:
        """parent_id -> the spans recorded under it; roots key as
        ``None``."""
        out: dict[Optional[int], list[TraceRecord]] = {}
        for r in self.records:
            out.setdefault(r.parent_id, []).append(r)
        return out

    def descendants(self, span_id: int) -> list[TraceRecord]:
        """Everything nested under a span (itself excluded), in
        preorder."""
        children = self.children
        out: list[TraceRecord] = []
        stack = list(reversed(children.get(span_id, ())))
        while stack:
            rec = stack.pop()
            out.append(rec)
            stack.extend(reversed(children.get(rec.span_id, ())))
        return out

    def ancestors(self, rec: TraceRecord) -> Iterator[TraceRecord]:
        """The spans enclosing ``rec``, innermost first."""
        by_id = self.by_id
        rec = by_id.get(rec.parent_id)
        while rec is not None:
            yield rec
            rec = by_id.get(rec.parent_id)

    # -- timelines -----------------------------------------------------------
    @cached_property
    def lanes(self) -> dict[tuple, list[TraceRecord]]:
        """``(rank, track)`` -> the spans on that lane.

        A *lane* is one timeline in the trace UI: a rank's ``main``/
        ``gpu``/``stream<k>`` thread (a ``None`` track is ``main``), or
        a fabric link.  Link lanes are shared across ranks and key as
        ``(None, "link:<label>")``.
        """
        out: dict[tuple, list[TraceRecord]] = {}
        for r in self.records:
            track = r.track or "main"
            key = (None, track) if track.startswith("link:") else (r.rank, track)
            out.setdefault(key, []).append(r)
        return out

    # -- protocol objects ----------------------------------------------------
    @cached_property
    def messages(self) -> dict[int, Message]:
        """``seq`` -> that rendezvous :class:`Message`.  Spans carrying
        only an ``origin_seq`` (pack/unpack/reduce of a wire image)
        belong to no message."""
        groups: dict[int, list[TraceRecord]] = {}
        for r in self.records:
            if r.category == "pipeline" and "seq" in r.meta:
                groups.setdefault(int(r.meta["seq"]), []).append(r)
        return {seq: Message(seq, spans) for seq, spans in groups.items()}

    @cached_property
    def collectives(self) -> list[TraceRecord]:
        """Every ``collective``-category span: one per rank per call."""
        return [r for r in self.records if r.category == "collective"]

    @cached_property
    def rank_collectives(self) -> dict[int, list[TraceRecord]]:
        """rank -> the collective spans attributed to it."""
        out: dict[int, list[TraceRecord]] = {}
        for r in self.collectives:
            if r.rank is not None:
                out.setdefault(r.rank, []).append(r)
        return out

    @cached_property
    def collective_instances(self) -> dict[tuple, list[TraceRecord]]:
        """``(comm, coll_seq, label)`` -> the member spans of that one
        collective call.  A span without both keys has no instance
        identity and joins none."""
        out: dict[tuple, list[TraceRecord]] = {}
        for r in self.collectives:
            if "comm" in r.meta and "coll_seq" in r.meta:
                key = (r.meta["comm"], r.meta["coll_seq"], r.label)
                out.setdefault(key, []).append(r)
        return out

    @cached_property
    def origins(self) -> dict[int, list[TraceRecord]]:
        """``origin_seq`` -> the ``pack_wire``/``reduce_wire`` spans
        that minted that wire image (one, in a well-formed trace)."""
        out: dict[int, list[TraceRecord]] = {}
        for r in self.records:
            if r.label in ("pack_wire", "reduce_wire") \
                    and "origin_seq" in r.meta:
                out.setdefault(r.meta["origin_seq"], []).append(r)
        return out


def trace_scope(sim, category: str, label: str = "", **kw):
    """Context manager opening a span on ``sim``'s tracer, or a no-op
    when no tracer is attached — the one-liner instrumentation sites use.
    """
    tracer = getattr(sim, "tracer", None)
    if tracer is None:
        return _NO_TRACER
    return tracer.begin(category, label, **kw)


#: shared no-op context for untraced sims (nullcontext is reentrant).
_NO_TRACER = nullcontext(None)
