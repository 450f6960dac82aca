"""Critical-path latency attribution from structured traces.

PR 1's hierarchical spans (``span_id``/``parent_id``, rank/track lanes)
make a run's trace a forest: every rendezvous message's seven pipeline
steps, the kernels/copies/pool operations they caused, and the wire
legs underneath them.  This module turns that DAG into *answers*:

* **where did each microsecond of a message go** — the critical path of
  a message is the unique chain of activity that determined its
  end-to-end latency.  :class:`CritPathAnalyzer` sweeps the message's
  makespan ``[t0, t1]`` backwards from completion: at every instant the
  innermost span still covering that instant is the *service* being
  performed on the path; instants covered by no span are *wait* time,
  attributed to the span whose completion the path was waiting on.
  The resulting :class:`Segment` list tiles ``[t0, t1]`` exactly —
  segment durations sum to the end-to-end simulated latency, and every
  segment references a real span in the trace (the invariant
  ``tests/test_critpath.py`` pins down).

* **per-resource decomposition** — each segment lands on the lane its
  span occupies (``main``, ``gpu``, ``stream<k>``, ``link:<label>``),
  splitting end-to-end latency into wait vs. service time per resource.

* **Fig 10 from the trace alone** — :meth:`MessagePath.attribution`
  buckets the critical path into compression / communication /
  decompression / other percentages, reproducing the paper's breakdown
  figures from the span tree rather than ad-hoc counters.

Usage::

    res = cluster.run(rank_fn, config=cfg)
    cp = CritPathAnalyzer(res.tracer)
    for msg in cp.slowest_messages(3):
        print(msg.seq, msg.latency * 1e6, msg.attribution())
    print(cp.explain())
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from repro.sim.trace import Trace
from repro.utils.tables import format_table
from repro.utils.units import fmt_bytes

__all__ = ["Segment", "MessagePath", "CollectivePath", "CritPathAnalyzer",
           "ATTRIBUTION_BUCKETS"]

#: Fig 10's aggregation of span categories into report buckets.
ATTRIBUTION_BUCKETS = {
    "compression_kernel": "compression",
    "combine": "compression",
    "reduction_kernel": "compression",
    "decompression_kernel": "decompression",
    "network": "communication",
}


@dataclass(frozen=True)
class Segment:
    """One slice of a critical path.

    ``kind`` is ``"service"`` (the span was actively running) or
    ``"wait"`` (nothing on the path was running; ``span`` is the span
    whose completion unblocked the path).  Either way ``span`` is a real
    :class:`~repro.sim.trace.TraceRecord` from the trace.
    """

    t_start: float
    t_end: float
    kind: str
    span: object  # TraceRecord
    step: Optional[str] = None  # enclosing pipeline step label, if any

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def resource(self) -> str:
        """The lane this slice occupies (``main``/``gpu``/``stream<k>``/
        ``link:<label>``)."""
        return self.span.track or "main"


def _sweep(spans, t0: float, t1: float) -> list[Segment]:
    """Tile ``[t0, t1]`` with service/wait segments (backward walk).

    ``spans`` are the candidate records; zero-duration spans (resilience
    markers) can never be selected.  The walk is deterministic: ties on
    coverage break by ``(t_start, span_id)`` — the innermost,
    most-recently-opened span wins.
    """
    live = [s for s in spans if s.duration > 0 and s.t_end > t0 and s.t_start < t1]
    segments: list[Segment] = []
    cur = t1
    while cur > t0:
        covering = [s for s in live if s.t_start < cur <= s.t_end]
        if covering:
            span = max(covering, key=lambda s: (s.t_start, s.span_id))
            lo = max(span.t_start, t0)
            segments.append(Segment(lo, cur, "service", span))
        else:
            lo = max((s.t_end for s in live if s.t_end < cur), default=t0)
            lo = max(lo, t0)
            # Waiting for whatever ran next on the path; at the very
            # start of the window fall back to the earliest span.
            waited = segments[-1].span if segments else min(
                live, key=lambda s: (s.t_start, s.span_id))
            segments.append(Segment(lo, cur, "wait", waited))
        cur = lo
    segments.reverse()
    return segments


def _with_steps(segments: list[Segment], trace: Trace) -> list[Segment]:
    """Annotate each segment with its enclosing ``pipeline`` step."""
    out = []
    for seg in segments:
        step = next((r.label
                     for r in chain((seg.span,), trace.ancestors(seg.span))
                     if r.category == "pipeline"), None)
        out.append(Segment(seg.t_start, seg.t_end, seg.kind, seg.span, step))
    return out


class _Path:
    """Aggregations shared by message and collective critical paths."""

    segments: tuple
    t_start: float
    t_end: float

    @property
    def latency(self) -> float:
        """End-to-end simulated seconds (== sum of segment durations)."""
        return self.t_end - self.t_start

    def service_time(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == "service")

    def wait_time(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == "wait")

    def by_step(self) -> dict[str, float]:
        """pipeline step -> critical-path seconds (waits attributed to
        the step they were waiting on; spans outside any step -> ``-``)."""
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.step or "-"] = out.get(s.step or "-", 0.0) + s.duration
        return out

    def by_resource(self) -> dict[str, dict[str, float]]:
        """lane -> {"service": s, "wait": s} decomposition."""
        out: dict[str, dict[str, float]] = {}
        for s in self.segments:
            slot = out.setdefault(s.resource, {"service": 0.0, "wait": 0.0})
            slot[s.kind] += s.duration
        return out

    def attribution(self) -> dict[str, float]:
        """Fig 10-style percentage buckets, summing to 100 (for a
        non-empty path): compression / communication / decompression /
        other, computed on the critical path alone."""
        out = {"compression": 0.0, "communication": 0.0,
               "decompression": 0.0, "other": 0.0}
        for s in self.segments:
            bucket = "other"
            if s.kind == "service":
                bucket = ATTRIBUTION_BUCKETS.get(s.span.category, "other")
            out[bucket] += s.duration
        total = self.latency
        if total > 0:
            out = {k: 100.0 * v / total for k, v in out.items()}
        return out


@dataclass
class MessagePath(_Path):
    """Critical path of one rendezvous message (keyed by ``seq``)."""

    seq: int
    src: Optional[int]
    dst: Optional[int]
    nbytes: Optional[int]        # original payload bytes (sender side)
    wire_nbytes: Optional[int]   # bytes that crossed the fabric
    t_start: float
    t_end: float
    segments: tuple

    def describe(self) -> str:
        size = fmt_bytes(self.nbytes) if self.nbytes else "?"
        return (f"seq {self.seq}: rank {self.src} -> {self.dst}, {size} "
                f"payload, {self.latency * 1e6:.1f} us end-to-end")


@dataclass
class CollectivePath(_Path):
    """Critical path of one rank's participation in a collective."""

    label: str
    rank: Optional[int]
    t_start: float
    t_end: float
    segments: tuple

    def describe(self) -> str:
        return (f"{self.label} rank {self.rank}: "
                f"{self.latency * 1e6:.1f} us")


class CritPathAnalyzer:
    """Walks a trace's span DAG (any source
    :meth:`~repro.sim.trace.Trace.of` accepts) and attributes
    end-to-end latency."""

    def __init__(self, source):
        self.trace = Trace.of(source)

    def _under(self, roots) -> list:
        """``roots`` plus everything nested beneath them."""
        return [r for root in roots
                for r in (root, *self.trace.descendants(root.span_id))]

    # -- message stitching --------------------------------------------------
    def messages(self) -> list[MessagePath]:
        """One :class:`MessagePath` per rendezvous message, by ``seq``.

        Eager/self sends record no pipeline spans and do not appear.
        The path window runs from the first span of the message to the
        completion of decompression/restore (``receiver_complete``);
        post-delivery cleanup (``sender_release``) is off the path.
        """
        out = []
        for seq, msg in sorted(self.trace.messages.items()):
            spans = self._under(msg.spans)
            t0 = min(r.t_start for r in spans)
            done = msg.steps.get("receiver_complete")
            t1 = max(r.t_end for r in done or spans)
            sender = msg.first("sender_prepare")
            receiver = (msg.first("receiver_prepare")
                        or msg.first("receiver_complete"))
            segments = _with_steps(_sweep(spans, t0, t1), self.trace)
            wire = [r for r in msg.steps.get("wire_transfer", ())
                    if "nbytes" in r.meta]
            out.append(MessagePath(
                seq=seq,
                src=sender.rank if sender else None,
                dst=receiver.rank if receiver else
                    (sender.meta.get("dst") if sender else None),
                nbytes=sender.meta.get("nbytes") if sender else None,
                wire_nbytes=sum(int(r.meta["nbytes"]) for r in wire) or None,
                t_start=t0, t_end=t1, segments=tuple(segments),
            ))
        return out

    def collectives(self) -> list[CollectivePath]:
        """One :class:`CollectivePath` per ``collective`` span (i.e. per
        rank per collective call), swept over that span's descendants."""
        out = []
        for rec in self.trace.collectives:
            if rec.duration <= 0:
                continue
            segments = _with_steps(
                _sweep(self._under([rec]), rec.t_start, rec.t_end), self.trace)
            out.append(CollectivePath(
                label=rec.label, rank=rec.rank,
                t_start=rec.t_start, t_end=rec.t_end,
                segments=tuple(segments),
            ))
        out.sort(key=lambda p: (p.t_start, p.rank if p.rank is not None else -1))
        return out

    # -- reporting ----------------------------------------------------------
    def slowest_messages(self, n: int = 5) -> list[MessagePath]:
        return sorted(self.messages(), key=lambda m: -m.latency)[:n]

    def aggregate_attribution(self) -> dict[str, float]:
        """Fig 10 buckets over *all* messages' critical paths, weighted
        by latency (percentages summing to 100 when messages exist)."""
        totals = {"compression": 0.0, "communication": 0.0,
                  "decompression": 0.0, "other": 0.0}
        weight = 0.0
        for msg in self.messages():
            for seg in msg.segments:
                bucket = "other"
                if seg.kind == "service":
                    bucket = ATTRIBUTION_BUCKETS.get(seg.span.category, "other")
                totals[bucket] += seg.duration
            weight += msg.latency
        if weight > 0:
            totals = {k: 100.0 * v / weight for k, v in totals.items()}
        return totals

    def explain(self, n: int = 5) -> str:
        """Human-readable report on the slowest ``n`` messages: where
        each one's end-to-end latency went, step by step."""
        msgs = self.slowest_messages(n)
        if not msgs:
            return ("no rendezvous messages in trace "
                    "(eager/self sends record no pipeline spans)")
        sections = []
        for msg in msgs:
            rows = []
            agg: dict[tuple, list[float]] = {}
            for seg in msg.segments:
                key = (seg.step or "-",
                       seg.span.category if seg.kind == "service" else "wait",
                       seg.resource if seg.kind == "service" else "-")
                slot = agg.setdefault(key, [0.0, 0.0])
                slot[0] += seg.duration
                slot[1] = max(slot[1], seg.t_end)
            order = sorted(agg.items(), key=lambda kv: kv[1][1])
            for (step, cat, res), (dur, _) in order:
                rows.append([step, cat, res, dur * 1e6,
                             100.0 * dur / msg.latency])
            attr = msg.attribution()
            table = format_table(
                ["step", "activity", "lane", "time_us", "share %"], rows,
                title=msg.describe())
            buckets = " / ".join(
                f"{k} {attr[k]:.1f}%" for k in
                ("compression", "communication", "decompression", "other"))
            sections.append(f"{table}\n  critical-path attribution: {buckets}")
        return "\n\n".join(sections)
