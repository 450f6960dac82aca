"""Counter / gauge / histogram registry populated by the instrumentation.

The same structured spans that feed the tracer also update a
:class:`MetricsRegistry` — the quantities an OSU-INAM-style monitor
would expose in real time (paper Section IX's future work): bytes on
the wire per link, compression ratio per codec, buffer-pool hit rate,
link utilization and matching-queue depths.

Every metric is identified by a name plus a frozen set of labels, e.g.
``("wire.bytes", (("link", "node0-up"),))``.  All state is plain
floats/ints, so two same-seed runs produce bit-identical registries —
the determinism tests rely on this.

Catalog of metrics emitted by the stack (see ``docs/observability.md``):

==============================  =======  ====================================
name                            kind     emitted by
==============================  =======  ====================================
``wire.bytes{link}``            counter  :class:`repro.network.links.Link`
``wire.transfers{link}``        counter  (and multi-link topology routes)
``wire.busy_seconds{link}``     counter
``pool.hit{device}``            counter  :class:`repro.gpu.pool.BufferPool`
``pool.miss{device}``           counter  (miss = on-demand cudaMalloc grow)
``compress.bytes_in{codec}``    counter  :class:`repro.core.engine.CompressionEngine`
``compress.bytes_out{codec}``   counter  (ratio = bytes_in / bytes_out)
``compress.fallback{codec}``    counter  incompressible raw fallbacks
``compress.kernel_us{codec}``   hist     per-launch compression kernel
                                         duration in microseconds
``decompress.kernel_us{codec}`` hist     per-launch decompression kernel
                                         duration in microseconds
``mpi.sends{protocol}``         counter  :class:`repro.mpi.comm.Communicator`
``matching.unexpected{rank}``   counter  :class:`repro.mpi.matching.MatchingEngine`
``matching.posted_depth{rank}``     hist observed posted-queue depth
``matching.unexpected_depth{rank}`` hist observed unexpected-queue depth
``faults.injected{kind}``       counter  :class:`repro.faults.FaultInjector` —
                                         one per fired fault (``corrupt``,
                                         ``drop``, ``oom``, ``pool_exhausted``,
                                         ``compress_fail``,
                                         ``decompress_corrupt``)
``resilience.<event>``          counter  :class:`repro.mpi.cluster.Runtime` —
                                         recovery actions (``crc_mismatch``,
                                         ``decode_error``, ``data_timeout``,
                                         ``retransmit``, ``retry``,
                                         ``recovered``, ``fallback``,
                                         ``breaker_veto``, ``timeout``)
``resilience.breaker_transitions{state}`` counter circuit-breaker state changes
``telemetry.rprt_bytes_written``  counter :func:`repro.analysis.rprt.write_trace_rprt`
                                         — stored bytes of every RPRT
                                         container written this run
``telemetry.rprt_compress_ratio`` gauge  raw/stored block-byte ratio of
                                         the most recent RPRT export
==============================  =======  ====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MetricsRegistry", "HistogramStat"]


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _series_key(series, labels: dict) -> tuple:
    """``series`` itself when it is a key already (from
    :meth:`MetricsRegistry.key`), else the key of that name and
    ``labels``."""
    return series if type(series) is tuple else _key(series, labels)


@dataclass(slots=True)
class HistogramStat:
    """Streaming summary of observed values (count/sum/min/max plus
    power-of-two bucket counts)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    buckets: dict = field(default_factory=dict)  # log2 bucket -> count

    def observe(self, value: float) -> None:
        # The comparisons ``min``/``max`` make, spelled out: a value
        # replaces the extreme only when strictly beyond it, and values
        # below 1 (``int`` of the clamp would be 1) land in bucket 0.
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = 0 if 1 > value else (int(value) - 1).bit_length()
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the bucket
        counts.  Resolution is the power-of-two bucket width: the
        estimate is the bucket's upper bound, clamped to the observed
        ``[min, max]`` so exact-count edge cases stay sharp.  Purely a
        function of the (deterministic) bucket counts, so two same-seed
        runs report identical percentiles."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, -(-int(q * self.count * 1000) // 1000))  # ceil, fp-safe
        seen = 0
        for bucket, n in sorted(self.buckets.items()):
            seen += n
            if seen >= rank:
                upper = float(1 << bucket) if bucket else 1.0
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Labelled counters, gauges and histograms.

    A series is named by ``name`` plus ``**labels``.  A site that
    updates the same series over and over builds the value :meth:`key`
    returns for them once and passes it to :meth:`inc`, :meth:`observe`
    or :meth:`set_max` in place of the name.  The per-message sites (a
    wire transfer's ``wire.*``, a send's ``mpi.sends``) add to
    ``_counters[key]`` directly, as :meth:`inc` would, increments they
    know are not negative."""

    def __init__(self):
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, HistogramStat] = {}

    @staticmethod
    def key(name: str, **labels) -> tuple:
        """The key of series ``name{labels}``, valid in any registry."""
        return _key(name, labels)

    # -- write side ------------------------------------------------------
    def inc(self, series, value: float = 1, **labels) -> None:
        """Add ``value`` to a counter (created at zero)."""
        k = _series_key(series, labels)
        if value < 0:
            raise ValueError(
                f"counter {k[0]!r} increment must be >= 0, got {value}")
        self._counters[k] = self._counters.get(k, 0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge to ``value``."""
        self._gauges[_key(name, labels)] = value

    def set_max(self, series, value: float, **labels) -> None:
        """Raise a gauge to ``value`` if larger (high-water marks)."""
        k = _series_key(series, labels)
        self._gauges[k] = max(self._gauges.get(k, value), value)

    def observe(self, series, value: float, **labels) -> None:
        """Record one observation into a histogram."""
        k = series if type(series) is tuple else _key(series, labels)
        hist = self._hists.get(k)
        if hist is None:
            hist = self._hists[k] = HistogramStat()
        hist.observe(value)

    # -- read side -------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        return self._counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge(self, name: str, **labels) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> HistogramStat:
        return self._hists.get(_key(name, labels), HistogramStat())

    def as_dict(self) -> dict:
        """Deterministically-ordered plain-dict dump (for export/tests)."""

        def fmt(k: tuple) -> str:
            name, labels = k
            if not labels:
                return name
            inner = ",".join(f"{lk}={lv}" for lk, lv in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {fmt(k): v for k, v in sorted(self._counters.items())},
            "gauges": {fmt(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                fmt(k): h.as_dict() for k, h in sorted(self._hists.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()
