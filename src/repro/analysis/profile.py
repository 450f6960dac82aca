"""INAM-style communication profiling.

The paper's future work leans on "a real-time monitor like OSU INAM"
to drive adaptive decisions.  :class:`CommProfile` distils a run's
tracer into the quantities such a monitor exposes: per-category time,
per-link busy fraction and moved bytes, a message-size histogram, and
per-rank pipeline time — and renders them as a report.

The profile is computed from *structured* trace records: wire activity
is any span whose ``track`` is a ``link:`` lane (equivalently, whose
meta carries a ``links`` tuple), never by matching label strings.  A
multi-hop cut-through span (e.g. HCA→HCA across the switch) names every
constituent link in ``meta["links"]`` and is attributed to each of
them, so per-link utilization stays within [0, 1].

Usage::

    res = cluster.run(rank_fn, config=cfg)
    profile = CommProfile.from_result(res)
    print(profile.report())
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.tables import format_table
from repro.utils.units import fmt_bytes, fmt_time

__all__ = ["CommProfile", "LinkStats"]


def _is_wire(rec) -> bool:
    return (rec.track or "").startswith("link:") or "links" in rec.meta


def _telemetry_slice(metrics: dict) -> dict:
    """The ``telemetry.*`` entries of a metrics-registry dump, flattened
    to ``{short_name: value}`` (counters and gauges alike)."""
    out = {}
    for section in ("counters", "gauges"):
        for key, value in (metrics.get(section) or {}).items():
            if key.startswith("telemetry."):
                out[key[len("telemetry."):]] = value
    return out


def _wire_links(rec) -> tuple:
    links = rec.meta.get("links")
    if links:
        return tuple(links)
    if rec.track and rec.track.startswith("link:"):
        return (rec.track[5:],)
    return (rec.meta.get("link", rec.label),)


@dataclass
class LinkStats:
    """Aggregated activity of one link."""

    label: str
    busy_time: float = 0.0
    bytes_moved: int = 0
    transfers: int = 0

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed else 0.0


@dataclass
class CommProfile:
    """A digested view of one simulation run."""

    elapsed: float
    category_time: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    size_histogram: dict = field(default_factory=dict)  # log2 bucket -> count
    rank_pipeline_time: dict = field(default_factory=dict)  # rank -> seconds
    total_wire_bytes: int = 0
    n_messages: int = 0
    #: host-side codec-cache activity (hits/misses/bytes_saved) for the
    #: run, when built from a ClusterResult.  Wall-clock bookkeeping,
    #: not simulated time.
    codec_cache: dict = field(default_factory=dict)
    #: telemetry-container self-metrics (``telemetry.*`` counters and
    #: gauges — RPRT bytes written, block compression ratio), pulled
    #: from the run's metrics registry or an ingested trace file.
    telemetry: dict = field(default_factory=dict)

    @classmethod
    def from_result(cls, result) -> "CommProfile":
        """Build from a :class:`~repro.mpi.cluster.ClusterResult`."""
        prof = cls.from_tracer(result.tracer, result.elapsed)
        prof.codec_cache = dict(getattr(result, "codec_cache", {}) or {})
        return prof

    @classmethod
    def from_tracer(cls, tracer, elapsed: float) -> "CommProfile":
        """Build from any tracer plus the run's elapsed simulated time."""
        prof = cls.from_records(tracer.records, elapsed)
        prof.telemetry = _telemetry_slice(tracer.metrics.as_dict())
        return prof

    @classmethod
    def from_records(cls, records, elapsed: float) -> "CommProfile":
        """Build from any iterable of span records — a tracer's list or
        a streamed file iterator; state is accumulated per record, so a
        generator never has to materialize."""
        prof = cls(elapsed=elapsed)
        for rec in records:
            prof.category_time[rec.category] = (
                prof.category_time.get(rec.category, 0.0) + rec.duration
            )
            if rec.category == "pipeline" and rec.rank is not None:
                prof.rank_pipeline_time[rec.rank] = (
                    prof.rank_pipeline_time.get(rec.rank, 0.0) + rec.duration
                )
            if _is_wire(rec):
                nbytes = int(rec.meta.get("nbytes", 0))
                for link in _wire_links(rec):
                    st = prof.links.setdefault(link, LinkStats(link))
                    st.busy_time += rec.duration
                    st.bytes_moved += nbytes
                    st.transfers += 1
                prof.total_wire_bytes += nbytes
                prof.n_messages += 1
                bucket = max(0, (max(nbytes, 1) - 1).bit_length())
                prof.size_histogram[bucket] = prof.size_histogram.get(bucket, 0) + 1
        return prof

    @classmethod
    def from_trace_file(cls, path) -> "CommProfile":
        """Ingest an exported trace file — Chrome-trace JSON or a binary
        RPRT container — one column group at a time, without loading
        the file or building a record.  Elapsed time and the telemetry
        metrics come from the trace's embedded ``otherData``."""
        from repro.analysis.traceio import _open_groups

        horizon = 0.0
        with _open_groups(path) as (other, groups):
            prof = cls(elapsed=float(other.get("elapsed_seconds") or 0.0))
            for group in groups():
                latest = prof._add_group(*group)
                if latest > horizon:
                    horizon = float(latest)
        if not prof.elapsed:
            # No recorded elapsed: fall back to the span horizon.
            prof.elapsed = horizon
        prof.telemetry = _telemetry_slice(other.get("metrics", {}))
        return prof

    def _add_group(self, columns, strings, metas) -> float:
        """Fold one exported-form column group
        (:func:`~repro.analysis.export.span_group`) into the profile
        exactly as :meth:`from_records` folds its records, row by row
        from the columns' lists.  Whether a row is a wire transfer, its
        links and its size are resolved once per distinct (meta, track,
        label) ids, and its counts are added once per distinct ids
        after the rows, in order of first appearance.  Returns the latest span end (NaN ends ignored;
        ``-inf`` for an empty group)."""
        ts, dur_us = columns[0], columns[1]
        t_end = (ts + dur_us) / 1e6
        times, pipeline = self.category_time, self.rank_pipeline_time
        kinds: dict = {}  # ids -> [stats of its links, nbytes, rows] or None
        for r, c, lb, tr, m, t0, t1 in zip(*(col.tolist() for col in columns[4:]),
                                          (ts / 1e6).tolist(), t_end.tolist()):
            d = t1 - t0
            category = strings[c]
            times[category] = times.get(category, 0.0) + d
            if category == "pipeline" and r >= 0:
                pipeline[r] = pipeline.get(r, 0.0) + d
            key = (m, tr, lb)
            kind = kinds.get(key, False)
            if kind is False:
                kind = kinds[key] = self._wire_kind(metas[m], strings[tr],
                                                    strings[lb])
            if kind is not None:
                for st in kind[0]:
                    st.busy_time += d
                kind[2] += 1
        for kind in kinds.values():
            if kind is not None:
                stats, nbytes, n = kind
                for st in stats:
                    st.bytes_moved += nbytes * n
                    st.transfers += n
                self.total_wire_bytes += nbytes * n
                self.n_messages += n
                bucket = max(0, (max(nbytes, 1) - 1).bit_length())
                self.size_histogram[bucket] = self.size_histogram.get(bucket, 0) + n
        return np.fmax.reduce(t_end, initial=-np.inf)

    def _wire_kind(self, meta: dict, track: str, label: str):
        """``[stats of its links, nbytes, 0]`` for a wire span's ids, or
        ``None``; its links join the profile now, in the order the
        records would bring them."""
        link_track = (track or "").startswith("link:")
        if not (link_track or "links" in meta):
            return None
        links = meta.get("links")
        links = (tuple(links) if links else (track[5:],) if link_track
                 else (meta.get("link", label),))
        stats = []
        for link in links:
            st = self.links.get(link)
            if st is None:
                st = self.links[link] = LinkStats(link)
            stats.append(st)
        return [stats, int(meta.get("nbytes", 0)), 0]

    def as_dict(self) -> dict:
        """JSON-ready form (``python -m repro profile --format json``).

        Times are microseconds; keys are sorted by construction so the
        serialized form is deterministic for same-seed runs."""
        return {
            "elapsed_us": self.elapsed * 1e6,
            "n_messages": self.n_messages,
            "total_wire_bytes": self.total_wire_bytes,
            "category_time_us": {
                cat: t * 1e6 for cat, t in sorted(self.category_time.items())
            },
            "links": {
                label: {
                    "busy_time_us": s.busy_time * 1e6,
                    "bytes_moved": s.bytes_moved,
                    "transfers": s.transfers,
                    "utilization": s.utilization(self.elapsed),
                }
                for label, s in sorted(self.links.items())
            },
            "rank_pipeline_time_us": {
                str(r): t * 1e6
                for r, t in sorted(self.rank_pipeline_time.items())
            },
            "wire_size_histogram": {
                str(b): n for b, n in sorted(self.size_histogram.items())
            },
            "codec_cache": {k: self.codec_cache[k]
                            for k in sorted(self.codec_cache)},
            "telemetry": {k: self.telemetry[k]
                          for k in sorted(self.telemetry)},
        }

    @property
    def busiest_link(self) -> LinkStats | None:
        if not self.links:
            return None
        return max(self.links.values(), key=lambda s: s.busy_time)

    def report(self) -> str:
        """Human-readable multi-section report."""
        sections = [f"run elapsed: {fmt_time(self.elapsed)}; "
                    f"{self.n_messages} wire transfers, "
                    f"{fmt_bytes(self.total_wire_bytes) if self.total_wire_bytes else '0'} moved"]
        if self.category_time:
            rows = sorted(
                ([cat, t * 1e6, 100 * t / max(1e-30, sum(self.category_time.values()))]
                 for cat, t in self.category_time.items()),
                key=lambda r: -r[1],
            )
            sections.append(format_table(
                ["category", "time_us", "share %"], rows, title="time by category"))
        if self.links:
            rows = sorted(
                ([s.label, s.transfers, s.bytes_moved / 1e6,
                  100 * s.utilization(self.elapsed)]
                 for s in self.links.values()),
                key=lambda r: -r[3],
            )
            sections.append(format_table(
                ["link", "transfers", "MB", "utilization %"], rows,
                title="link activity"))
        if self.rank_pipeline_time:
            rows = [[f"rank {r}", t * 1e6]
                    for r, t in sorted(self.rank_pipeline_time.items())]
            sections.append(format_table(
                ["rank", "pipeline time_us"], rows, title="pipeline time by rank"))
        if self.size_histogram:
            rows = [[f"<=2^{b}", n] for b, n in sorted(self.size_histogram.items())]
            sections.append(format_table(
                ["message size", "count"], rows, title="wire-size histogram"))
        if self.codec_cache:
            hits = self.codec_cache.get("hits", 0)
            misses = self.codec_cache.get("misses", 0)
            total = hits + misses
            rate = 100.0 * hits / total if total else 0.0
            saved = self.codec_cache.get("bytes_saved", 0)
            sections.append(
                "codec cache (host-side): "
                f"{hits} hits / {misses} misses ({rate:.1f}% hit rate), "
                f"{saved / 1e6:.1f} MB of codec input re-used")
        if self.telemetry:
            parts = []
            if "rprt_bytes_written" in self.telemetry:
                parts.append(f"{fmt_bytes(int(self.telemetry['rprt_bytes_written']))} "
                             f"of RPRT blocks written")
            if "rprt_compress_ratio" in self.telemetry:
                parts.append(f"block compression ratio "
                             f"{self.telemetry['rprt_compress_ratio']:.2f}x")
            for k in sorted(self.telemetry):
                if k not in ("rprt_bytes_written", "rprt_compress_ratio"):
                    parts.append(f"{k}={self.telemetry[k]}")
            sections.append("telemetry container: " + ", ".join(parts))
        return "\n\n".join(sections)
