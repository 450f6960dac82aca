"""Point-to-point link model.

A link is a unidirectional latency+bandwidth pipe.  Transfers hold the
link for their serialization time, so concurrent messages through the
same link (e.g. several ranks behind one InfiniBand HCA) queue — the
contention that shapes collective and application performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import MetricsRegistry
from repro.errors import ConfigError, NetworkError
from repro.sim import Resource, Simulator
from repro.sim.trace import CURRENT

__all__ = ["LinkSpec", "Link", "Transfer"]


@dataclass(frozen=True)
class LinkSpec:
    """Static link description.

    Attributes
    ----------
    name:
        Human-readable technology name ("IB-EDR", "NVLink-3", ...).
    latency:
        One-way propagation + switching latency (seconds).
    bandwidth:
        Peak unidirectional bandwidth (bytes/second).

    A live :class:`Link` carries one transfer at a time, as the
    serial-lane check and the happens-before lane edges assume.
    """

    name: str
    latency: float
    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigError(
                f"link {self.name!r}: bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ConfigError(
                f"link {self.name!r}: latency must be >= 0, got {self.latency}")

    def serialization_time(self, nbytes: int) -> float:
        """Time for ``nbytes`` to cross the wire, excluding queueing."""
        return self.latency + nbytes / self.bandwidth


class Link:
    """A live (contended) instance of a :class:`LinkSpec`."""

    def __init__(self, sim: Simulator, spec: LinkSpec, label: str = ""):
        self.sim = sim
        self.spec = spec
        self.label = label or spec.name
        self._res = Resource(sim)
        #: this link's metric series keys
        self._wire_keys = tuple(
            MetricsRegistry.key(name, link=self.label)
            for name in ("wire.bytes", "wire.transfers", "wire.busy_seconds"))

    def transfer(self, nbytes: int, label: str = ""):
        """Move ``nbytes`` across the link (generator subroutine).

        Queues behind in-flight transfers, then holds the link for the
        serialization time.
        """
        yield from Transfer(self.sim, (self,), nbytes,
                            self.spec.serialization_time(nbytes), label).run()

    def __repr__(self) -> str:
        return f"<Link {self.label} {self.spec.bandwidth / 1e9:.1f}GB/s>"


class Transfer:
    """One message holding every link of a route for its wire time.

    Each link is taken with ``Resource.acquire``: a free one on the spot,
    and only a busy one queues a request event, so an uncontended
    transfer is a single scheduler entry.  Once
    every link is held the wire timer runs, the links are released and
    the ``network`` span and ``wire.*`` metrics are recorded.

    Two drivers share those steps: :meth:`run` is the generator a
    protocol process delegates to, :meth:`start` drives them from
    scheduler callbacks and calls ``on_done()`` — no process, no
    generator frame.  ``duration`` is the route's total latency plus
    serialization at its bottleneck; ``src``/``dst`` label a multi-link
    route's span.
    """

    __slots__ = ("sim", "links", "nbytes", "duration", "label", "src", "dst",
                 "parent", "t0", "_reqs", "_waiting", "_on_done")

    def __init__(self, sim: Simulator, links, nbytes: int, duration: float,
                 label: str = "", src=None, dst=None, parent=CURRENT):
        if nbytes < 0:
            raise NetworkError(f"negative transfer size: {nbytes}")
        self.sim = sim
        self.links = links
        self.nbytes = nbytes
        self.duration = duration
        self.label = label
        self.src = src
        self.dst = dst
        self.parent = parent
        self._reqs = None
        self._on_done = None

    # -- shared steps ---------------------------------------------------
    def _acquire(self):
        """Take every free link now and queue for the busy ones; the
        requests still to wait for, per link (``None`` = held), or
        ``None`` when the whole route is held."""
        reqs = None
        for i, link in enumerate(self.links):
            req = link._res.acquire()
            if req is not None:
                if reqs is None:
                    reqs = [None] * len(self.links)
                reqs[i] = req
        self._reqs = reqs
        return reqs

    def _release(self) -> None:
        """Free held links and withdraw queued requests: :meth:`run`
        releases from a ``finally``, so a process that unwinds while
        still queued for a link leaves no request behind it."""
        reqs = self._reqs
        if reqs is None:
            for link in self.links:
                link._res.release()
            return
        for link, req in zip(self.links, reqs):
            if req is None:
                link._res.release()
            else:
                link._res.cancel(req)

    def _record(self, tracer) -> None:
        now = self.sim._now
        labels = tuple(l.label for l in self.links)
        if len(labels) == 1:
            name = labels[0]
            tracer.span(self.t0, now, "network", self.label or name,
                        track=f"link:{name}", parent=self.parent,
                        nbytes=self.nbytes, link=name, links=labels)
        else:
            route = "+".join(labels)
            tracer.span(self.t0, now, "network",
                        self.label or f"{self.src}->{self.dst}",
                        track=f"link:{route}", parent=self.parent,
                        nbytes=self.nbytes, src=self.src, dst=self.dst,
                        link=route, links=labels)
        m = tracer.metrics
        busy = now - self.t0
        for link in self.links:
            k_bytes, k_transfers, k_busy = link._wire_keys
            m.inc(k_bytes, self.nbytes)
            m.inc(k_transfers, 1)
            m.inc(k_busy, busy)

    # -- generator driver -----------------------------------------------
    def run(self):
        try:
            reqs = self._acquire()
            if reqs is not None:
                for req in reqs:
                    if req is not None:
                        yield req
            self.t0 = self.sim._now  # every link is held
            yield self.sim.timeout(self.duration)
        finally:
            self._release()
        tracer = self.sim.tracer
        if tracer is not None:
            self._record(tracer)

    # -- callback driver ------------------------------------------------
    def start(self, on_done) -> None:
        self._on_done = on_done
        reqs = self._acquire()
        if reqs is None:  # every link was free: :meth:`_begin`, inline
            sim = self.sim
            self.t0 = sim._now
            sim.call_later(self.duration, self._finish)
            return
        waiting = [req for req in reqs if req is not None]
        self._waiting = len(waiting)
        for req in waiting:
            req.add_callback(self._granted)

    def _granted(self, _event) -> None:
        self._waiting -= 1
        if not self._waiting:
            self._begin()

    def _begin(self) -> None:
        self.t0 = self.sim._now  # every link is held
        self.sim.call_later(self.duration, self._finish)

    def _finish(self, _event) -> None:
        self._release()
        tracer = self.sim.tracer
        if tracer is not None:
            self._record(tracer)
        self._on_done()
