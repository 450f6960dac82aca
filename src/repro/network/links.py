"""Point-to-point link model.

A link is a unidirectional latency+bandwidth pipe.  Transfers hold the
link for their serialization time, so concurrent messages through the
same link (e.g. several ranks behind one InfiniBand HCA) queue — the
contention that shapes collective and application performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import MetricsRegistry
from repro.errors import ConfigError
from repro.sim import Resource, Simulator

__all__ = ["LinkSpec", "Link", "Route"]


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
        #: the route of every message that crosses this link alone
        self.route = Route([self])

    def __repr__(self) -> str:
        return f"<Link {self.label} {self.spec.bandwidth / 1e9:.1f}GB/s>"


class Route:
    """A route's links and what every ``network`` span and ``wire.*``
    update over it repeat, built once: the default span label, the
    ``link:`` track, the meta fields other than ``nbytes``, each link's
    metric keys and :attr:`key`, the route's value in a span-row memo.

    A one-link route's span names its link; a longer one's also names
    its ``src``/``dst`` (the GPUs it joins) and is labelled
    ``"src->dst"`` by default.

    The wire steps every message over the route takes are methods here:
    :meth:`acquire` the links, hold them for the wire time,
    :meth:`release` them, :meth:`record` the span and counters.
    :meth:`Topology.transfer <repro.network.topology.Topology.transfer>`
    drives them from a process; the eager send
    (:class:`repro.mpi.eager.EagerSend`) from scheduler callbacks."""

    __slots__ = ("links", "src", "dst", "labels", "link", "label", "track",
                 "wire_keys", "key")

    def __init__(self, links: list, src=None, dst=None):
        self.links = links
        self.src = src
        self.dst = dst
        self.labels = tuple(l.label for l in links)
        if len(links) == 1:
            self.link = self.label = self.labels[0]
        else:
            self.link = "+".join(self.labels)
            self.label = f"{src}->{dst}"
        self.track = f"link:{self.link}"
        self.wire_keys = tuple(l._wire_keys for l in links)
        #: what the span fields are a function of: equal routes (one
        #: rebuilt after the topology's route cache was cleared) share
        #: their memoized rows
        self.key = (self.labels, src, dst)

    def span_fields(self, key: tuple) -> tuple:
        """The ``network`` span of ``key = (route key, label, nbytes,
        type of nbytes)``, as :meth:`~repro.sim.trace.Tracer.keyed_span`
        builds it at a key's first sight."""
        _, label, nbytes, _ = key
        if len(self.links) == 1:
            meta = {"nbytes": nbytes, "link": self.link, "links": self.labels}
        else:
            meta = {"nbytes": nbytes, "src": self.src, "dst": self.dst,
                    "link": self.link, "links": self.labels}
        return "network", label, meta, None, self.track

    def acquire(self):
        """Take every free link now and queue for the busy ones: ``None``
        when the whole route is held, else the request to wait for per
        link (``None`` = held).  Only a busy link queues a request
        event, so an uncontended message is one scheduler entry."""
        links = self.links
        reqs = None
        for i, link in enumerate(links):
            req = link._res.acquire()
            if req is not None:
                if reqs is None:
                    reqs = [None] * len(links)
                reqs[i] = req
        return reqs

    def release(self, reqs) -> None:
        """Free the links :meth:`acquire` took (``reqs`` is what it
        returned) and withdraw requests still queued, so a process that
        unwinds while waiting for a link leaves no request behind."""
        links = self.links
        if reqs is None:
            for link in links:
                link._res.release()
            return
        for link, req in zip(links, reqs):
            if req is None:
                link._res.release()
            else:
                link._res.cancel(req)

    def record(self, tracer, label: str, nbytes: int, t0: float, t1: float,
               parent) -> None:
        """The ``network`` span of a message that held the route from
        ``t0`` to ``t1`` — a repeat of an earlier (label, size) over an
        equal route reuses its row's ids — and each link's ``wire.*``
        counters, added by key in link order (``nbytes`` and ``busy``
        are never negative)."""
        tracer.keyed_span((self.key, label or self.label, nbytes,
                           type(nbytes)),
                          self.span_fields, t0, t1, parent)
        counters = tracer.metrics._counters
        busy = t1 - t0
        for k_bytes, k_transfers, k_busy in self.wire_keys:
            counters[k_bytes] = counters.get(k_bytes, 0) + nbytes
            counters[k_transfers] = counters.get(k_transfers, 0) + 1
            counters[k_busy] = counters.get(k_busy, 0) + busy

