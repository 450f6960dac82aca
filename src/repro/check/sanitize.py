"""Trace sanitizer: structural invariant checks over span traces.

A run's trace is not just a visualization artifact — the critical-path
analyzer, the latency breakdowns and the paper figures are all computed
from it, so a malformed trace silently corrupts every downstream
number.  This module re-validates the invariants the simulator is
supposed to enforce, over anything :meth:`repro.sim.trace.Trace.of`
reads — a live :class:`~repro.sim.trace.Tracer`, a record list — or
over an exported trace file — Chrome-trace JSON or a binary RPRT
container, streamed via :meth:`TraceSanitizer.from_trace_file` — so CI
can check golden traces without re-running the scenario.

Checks (each returns a list of :class:`TraceViolation`):

``serial-lane``
    Mutual exclusion on lanes backed by capacity-1 resources: CUDA
    streams (``stream<k>`` tracks, one ``Resource(capacity=1)`` each)
    and fabric links (``link:<label>`` tracks; every
    :class:`~repro.network.links.Link` is one ``Resource(capacity=1)``).
    Two overlapping X spans on one such lane mean two
    processes held the same serial resource at once — a race in the
    acquire/release protocol.  ``main``/``gpu`` lanes legitimately carry
    concurrent spans (overlapping isend/irecv, pipelined part senders)
    and are exempt.

``containment``
    Parent/child hierarchy: every ``parent_id`` resolves to a real span,
    and a child does not *start* before its parent started.  (A child
    may *end* after its parent: processes spawned under a span inherit
    it as base parent and can outlive it — the pipelined part senders
    do.)

``causality``
    Per-message rendezvous ordering by ``seq``: ``sender_prepare``
    before ``rts``, ``rts`` before ``cts`` and ``receiver_prepare``,
    every ``wire_transfer`` after the first ``cts`` completes, every
    ``receiver_complete`` after its wire transfer — the one of the same
    part and attempt — lands.

``tiling``
    The critical-path sweep's contract: for every rendezvous message,
    the service/wait segments tile ``[t0, t1]`` exactly — durations sum
    to the end-to-end latency within float tolerance.

``collective``
    Keep-compressed collective causality: every pipeline span carrying
    an ``origin_seq`` (pack/unpack/reduce and each relayed hop's
    rts/wire/complete) must start inside a ``collective``-category span
    on its rank, and its ``origin_seq`` must resolve to a real
    ``pack_wire``/``reduce_wire`` span; every relayed hop (a seq group
    with wire spans but no ``sender_prepare``) must stamp the
    originating seq on its rts/wire_transfer/receiver_complete spans so
    recovery and attribution can stitch the hop back to its origin.
    Retransmissions (spans with an ``attempt``) legitimately outlive
    the collective and are exempt from containment.

Timestamps compare with ``EPS`` = 1 ns slack: the Chrome export rounds
to 1e-6 us (~1e-12 s), so true violations dwarf the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.trace import Trace, TraceRecord

__all__ = ["TraceSanitizer", "TraceViolation", "EPS", "SERIAL_LANE_PREFIXES"]

#: comparison slack in simulated seconds (export granularity ~1e-12 s)
EPS = 1e-9

#: track-name prefixes whose lanes are backed by capacity-1 resources
SERIAL_LANE_PREFIXES = ("stream", "link:")

#: |sum(segments) - latency| bound for the tiling check
_TILING_TOL = 5e-9


@dataclass(frozen=True)
class TraceViolation:
    """One invariant violation, pinned to the offending spans."""

    check: str        #: "serial-lane" | "containment" | "causality" | "tiling" | "collective"
    message: str
    span_ids: tuple = ()
    t: float = 0.0    #: sim-time where the violation manifests

    def describe(self) -> str:
        spans = (" [spans " + ", ".join(str(s) for s in self.span_ids) + "]"
                 if self.span_ids else "")
        return f"{self.check} @ t={self.t:.9f}: {self.message}{spans}"

    def as_dict(self) -> dict:
        return {"check": self.check, "message": self.message,
                "span_ids": list(self.span_ids), "t": self.t}


class TraceSanitizer:
    """Runs the six structural checks over one trace (any source
    :meth:`~repro.sim.trace.Trace.of` accepts)."""

    def __init__(self, source):
        self.trace = Trace.of(source)
        #: the per-span checks walk the spans as the source listed
        #: them, so their findings keep that order
        self.records = self.trace.listed

    # -- construction --------------------------------------------------------
    @classmethod
    def from_trace_file(cls, path) -> "TraceSanitizer":
        """Rebuild spans from an exported trace file — Chrome-trace JSON
        or an RPRT container (detected by magic).  Events are streamed
        through :mod:`repro.analysis.traceio`, so peak memory is the
        compact record list, never the serialized document."""
        from repro.analysis.traceio import load_trace_records

        return cls(load_trace_records(path))

    # -- checks --------------------------------------------------------------
    def check_serial_lanes(self) -> list[TraceViolation]:
        """No two spans may overlap on a stream or link lane."""
        out = []
        for (rank, track), spans in sorted(
                self.trace.lanes.items(),
                key=lambda kv: (kv[0][0] if kv[0][0] is not None else -1, kv[0][1])):
            if not track.startswith(SERIAL_LANE_PREFIXES):
                continue
            prev: Optional[TraceRecord] = None
            prev_end = float("-inf")
            for rec in spans:
                if rec.t_start < prev_end - EPS:
                    where = f"lane {track}" + (
                        f" of rank {rank}" if rank is not None else "")
                    out.append(TraceViolation(
                        "serial-lane",
                        f"{where}: span {rec.span_id} "
                        f"({rec.category}/{rec.label}) starts at "
                        f"{rec.t_start:.9f} while span {prev.span_id} "
                        f"({prev.category}/{prev.label}) is still running "
                        f"until {prev_end:.9f}",
                        span_ids=(prev.span_id, rec.span_id),
                        t=rec.t_start))
                if rec.t_end > prev_end:
                    prev, prev_end = rec, rec.t_end
        return out

    def check_containment(self) -> list[TraceViolation]:
        """Every parent_id resolves; children never start before their
        parent (children may outlive an inherited parent)."""
        by_id = self.trace.by_id
        out = []
        for rec in self.records:
            if rec.parent_id is None:
                continue
            parent = by_id.get(rec.parent_id)
            if parent is None:
                out.append(TraceViolation(
                    "containment",
                    f"span {rec.span_id} ({rec.category}/{rec.label}) "
                    f"references missing parent {rec.parent_id}",
                    span_ids=(rec.span_id,), t=rec.t_start))
                continue
            if rec.t_start < parent.t_start - EPS:
                out.append(TraceViolation(
                    "containment",
                    f"span {rec.span_id} ({rec.category}/{rec.label}) starts "
                    f"at {rec.t_start:.9f}, before its parent "
                    f"{parent.span_id} ({parent.category}/{parent.label}) "
                    f"opened at {parent.t_start:.9f}",
                    span_ids=(rec.span_id, parent.span_id), t=rec.t_start))
        return out

    def check_causality(self) -> list[TraceViolation]:
        """Rendezvous handshake ordering, per message ``seq``."""
        out = []
        for seq, msg in sorted(self.trace.messages.items()):

            def bad(why, *recs):
                out.append(TraceViolation(
                    "causality", f"seq {seq}: {why}",
                    span_ids=tuple(r.span_id for r in recs),
                    t=min(r.t_start for r in recs)))

            prep, rts, cts = (msg.first("sender_prepare"), msg.first("rts"),
                              msg.first("cts"))
            if rts is not None and prep is not None \
                    and rts.t_start < prep.t_start - EPS:
                bad("rts sent before sender_prepare began", rts, prep)
            if cts is not None and rts is not None \
                    and cts.t_start < rts.t_start - EPS:
                bad("cts sent before rts", cts, rts)
            rprep = msg.first("receiver_prepare")
            if rprep is not None and rts is not None \
                    and rprep.t_start < rts.t_start - EPS:
                bad("receiver_prepare began before rts arrived", rprep, rts)
            if cts is not None:
                for w in msg.steps.get("wire_transfer", ()):
                    if w.t_start < cts.t_end - EPS:
                        bad("wire_transfer started before cts completed",
                            w, cts)
            for rc in msg.steps.get("receiver_complete", ()):
                wire = msg.wire_for(rc)
                if wire is not None and rc.t_start < wire.t_end - EPS:
                    bad("receiver_complete began before its wire transfer "
                        "landed", rc, wire)
        return out

    def check_tiling(self) -> list[TraceViolation]:
        """Critical-path segments of every message must sum exactly to
        its end-to-end latency."""
        from repro.analysis.critpath import CritPathAnalyzer

        out = []
        cp = CritPathAnalyzer(self.trace)
        for msg in cp.messages():
            covered = sum(s.duration for s in msg.segments)
            if abs(covered - msg.latency) > _TILING_TOL:
                out.append(TraceViolation(
                    "tiling",
                    f"seq {msg.seq}: critical-path segments cover "
                    f"{covered:.9f}s of a {msg.latency:.9f}s message",
                    span_ids=(), t=msg.t_start))
            prev = msg.t_start
            for seg in msg.segments:
                if abs(seg.t_start - prev) > _TILING_TOL:
                    out.append(TraceViolation(
                        "tiling",
                        f"seq {msg.seq}: gap in critical path between "
                        f"{prev:.9f} and {seg.t_start:.9f}",
                        span_ids=(seg.span.span_id,), t=prev))
                prev = seg.t_end
        return out

    def check_collectives(self) -> list[TraceViolation]:
        """Keep-compressed collective causality (see module docstring)."""
        out = []
        # origin_seqs minted by a pack or a compressed-domain reduction
        origins = self.trace.origins
        coll_spans = self.trace.rank_collectives

        def contained(rec) -> bool:
            return any(c.t_start - EPS <= rec.t_start <= c.t_end + EPS
                       for c in coll_spans.get(rec.rank, ()))

        for rec in self.records:
            if rec.category != "pipeline" or "origin_seq" not in rec.meta:
                continue
            if rec.meta["origin_seq"] not in origins:
                out.append(TraceViolation(
                    "collective",
                    f"span {rec.span_id} ({rec.label}) carries "
                    f"origin_seq {rec.meta['origin_seq']} but no "
                    f"pack_wire/reduce_wire span minted it",
                    span_ids=(rec.span_id,), t=rec.t_start))
            if "attempt" in rec.meta:
                continue  # retransmits legitimately outlive the collective
            if rec.rank is not None and not contained(rec):
                out.append(TraceViolation(
                    "collective",
                    f"span {rec.span_id} ({rec.label}, rank {rec.rank}) "
                    f"carries origin_seq {rec.meta['origin_seq']} but "
                    f"starts outside every collective span on its rank",
                    span_ids=(rec.span_id,), t=rec.t_start))

        # relayed hops must stamp the originating seq on every wire span
        for seq, msg in sorted(self.trace.messages.items()):
            if "sender_prepare" in msg.steps:
                continue  # plain rendezvous, not a relayed wire image
            if not any("origin_seq" in r.meta for r in msg.spans):
                continue  # not a wire hop at all (e.g. eager control)
            for r in msg.spans:
                if r.label in ("rts", "wire_transfer", "receiver_complete") \
                        and "origin_seq" not in r.meta:
                    out.append(TraceViolation(
                        "collective",
                        f"seq {seq}: relayed {r.label} span {r.span_id} "
                        f"dropped the originating seq",
                        span_ids=(r.span_id,), t=r.t_start))
        return out

    def check_all(self) -> list[TraceViolation]:
        """All five checks, in a stable order."""
        return (self.check_serial_lanes() + self.check_containment()
                + self.check_causality() + self.check_tiling()
                + self.check_collectives())
