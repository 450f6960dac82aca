"""Tag matching: posted receives vs. unexpected messages.

MPI matching semantics per receiver rank: a receive matches the first
arrived (FIFO) message whose ``(source, tag)`` agrees, with wildcards
``ANY_SOURCE``/``ANY_TAG``.  Envelope packets (EAGER or RTS) go
through matching; CTS and DATA packets are routed by sequence number
to the operation that is waiting for them.

Tags arrive here already shifted into their communicator's block (see
``repro.mpi.comm.TAG_STRIDE``).  A wildcard tag must not reach outside
the point-to-point tags of its own communicator — not into another
communicator's block, nor into the collective tags above ``P2P_TAGS`` —
so a wildcard-tag post for the block starting at ``base`` carries the
negative tag ``~base`` (:data:`ANY` itself for the world communicator)
and matches ``base <= tag < base + P2P_TAGS``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.analysis.metrics import MetricsRegistry
from repro.errors import MpiError
from repro.mpi.message import Cts, Data, Eager, Rts
from repro.sim import Event, Simulator
from repro.sim.trace import CURRENT

__all__ = ["MatchingEngine", "ANY", "P2P_TAGS"]

ANY = -1

#: the point-to-point tags at the bottom of each communicator's block
P2P_TAGS = 1 << 19


class MatchingEngine:
    """Per-rank matching state."""

    def __init__(self, sim: Simulator, rank: int):
        self.sim = sim
        self.rank = rank
        #: posted receives, ``(source, tag, on_match)``: ``on_match`` is
        #: called with the matching envelope, at match time
        self._posted: deque[tuple[int, int, Callable[[Eager | Rts], None]]] = deque()
        self._unexpected: deque[Eager | Rts] = deque()
        self._cts_waiters: dict[int, Event] = {}
        self._data_waiters: dict[int, Event] = {}
        self._early: dict[tuple[str, tuple], Cts | Data] = {}
        #: DATA keys withdrawn from a retired message: dropped on arrival
        self._withdrawn: set[tuple] = set()
        #: peer rank -> sim time of the last packet delivered from it:
        #: host-side bookkeeping, always on (it costs no simulated time
        #: and enriches every hang diagnostic)
        self.last_heard: dict[int, float] = {}
        #: this rank's metric series keys
        self._k_posted_depth, self._k_unexpected, self._k_unexpected_depth = (
            MetricsRegistry.key(name, rank=rank)
            for name in ("matching.posted_depth", "matching.unexpected",
                         "matching.unexpected_depth"))

    def _note_wildcard_match(self, post_tag: int, pkt: Eager | Rts,
                             parent) -> None:
        """Record an instantaneous ``wildcard_match`` span for a match
        of a wildcard-source post — the anchor the happens-before
        message-race detector keys on.  Exact-source matches are fully
        determined by MPI ordering; callers do not report them."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        now = self.sim.now
        tracer.span(now, now, "matching", "wildcard_match", rank=self.rank,
                    track="main", parent=parent, seq=pkt.seq, src=pkt.src,
                    tag=pkt.tag, posted_tag=ANY if post_tag < 0 else post_tag)

    # -- envelope path ------------------------------------------------------
    def post(self, source: int, tag: int, on_match: Callable[[Eager | Rts], None],
             parent=CURRENT) -> None:
        """Post a receive that calls ``on_match(envelope)`` at match
        time — now, if the envelope already sits in the unexpected
        queue.  ``parent`` is the span a ``wildcard_match`` recorded for
        this post nests under when the poster is not a process."""
        for i, pkt in enumerate(self._unexpected):
            if (source == ANY or source == pkt.src) and (tag == pkt.tag or (
                    tag < 0 and 0 <= pkt.tag - ~tag < P2P_TAGS)):
                del self._unexpected[i]
                if source == ANY:
                    self._note_wildcard_match(tag, pkt, parent)
                on_match(pkt)
                return
        self._posted.append((source, tag, on_match))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.metrics.observe(self._k_posted_depth, len(self._posted))

    def deliver_envelope(self, pkt: Eager | Rts, parent=CURRENT) -> None:
        """An EAGER or RTS packet arrived.  ``parent``: as for
        :meth:`post`, for a sender that is not a process."""
        src = pkt.src
        self.last_heard[src] = self.sim._now
        tag = pkt.tag
        for i, (source, post_tag, on_match) in enumerate(self._posted):
            if (source == ANY or source == src) and (post_tag == tag or (
                    post_tag < 0 and 0 <= tag - ~post_tag < P2P_TAGS)):
                del self._posted[i]
                if source == ANY:
                    self._note_wildcard_match(post_tag, pkt, parent)
                on_match(pkt)
                return
        self._unexpected.append(pkt)
        tracer = self.sim.tracer
        if tracer is not None:
            m = tracer.metrics
            m.inc(self._k_unexpected)
            m.observe(self._k_unexpected_depth, len(self._unexpected))

    # -- seq-routed path ------------------------------------------------------
    def expect_cts(self, seq: int) -> Event:
        return self._expect("cts", (seq, 0), self._cts_waiters)

    def expect_data(self, seq: int, part: int = 0, attempt: int = 0) -> Event:
        """Wait for a DATA packet.  ``attempt`` keys retransmissions so
        a late original delivery cannot satisfy a retry's waiter."""
        return self._expect("data", (seq, part, attempt), self._data_waiters)

    def _expect(self, kind: str, key: tuple, table: dict[tuple, Event]) -> Event:
        early = self._early.pop((kind, key), None)
        ev = self.sim.event()
        if early is not None:
            ev.succeed(early)
            return ev
        if key in table:
            raise MpiError(f"duplicate {kind} waiter for {key}")
        table[key] = ev
        return ev

    def deliver_cts(self, pkt: Cts) -> None:
        self.last_heard[pkt.src] = self.sim._now
        self._route("cts", (pkt.seq, 0), pkt, self._cts_waiters)

    def deliver_data(self, pkt: Data) -> None:
        self.last_heard[pkt.src] = self.sim._now
        self._route("data", (pkt.seq, pkt.part, pkt.attempt), pkt,
                    self._data_waiters)

    def withdraw_data(self, seq: int) -> None:
        """Withdraw the DATA waiters that message ``seq``'s timed-out
        attempts left behind: it has retired, nothing waits for them."""
        for key in [key for key in self._data_waiters if key[0] == seq]:
            del self._data_waiters[key]
            self._withdrawn.add(key)

    def _route(self, kind: str, key: tuple, pkt: Cts | Data,
               table: dict[tuple, Event]) -> None:
        ev = table.pop(key, None)
        if ev is not None:
            ev.succeed(pkt)
        elif key in self._withdrawn:  # a late delivery: drop it
            self._withdrawn.remove(key)
        else:
            self._early[(kind, key)] = pkt

    # -- diagnostics ------------------------------------------------------------
    @property
    def pending_recvs(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    @property
    def idle(self) -> bool:
        """True when no receive, envelope, or in-flight handshake is
        outstanding on this rank."""
        return not (self._posted or self._unexpected or self._cts_waiters
                    or self._data_waiters or self._early)

    def diagnostics(self) -> str:
        """Multi-line dump of the matching state, used to explain hangs
        (:class:`~repro.errors.DeadlockError`) and rendezvous timeouts,
        ending with when this rank last heard from each peer."""
        def name(v: int) -> str:
            return "ANY" if v < 0 else str(v)

        lines = []
        for source, tag, _ in self._posted:
            lines.append(f"  posted recv: source={name(source)} tag={name(tag)}")
        for pkt in self._unexpected:
            lines.append(f"  unexpected envelope: {pkt!r}")
        if self._cts_waiters:
            lines.append(
                f"  outstanding CTS waits for seq(s) "
                f"{sorted(k[0] for k in self._cts_waiters)}")
        if self._data_waiters:
            lines.append(
                "  outstanding DATA waits for (seq, part, attempt) "
                f"{sorted(self._data_waiters)}")
        if self._early:
            lines.append(
                f"  early packets never claimed: {sorted(self._early)}")
        if not lines:
            lines.append("  idle (no posted receives or pending packets)")
        for peer in sorted(self.last_heard):
            lines.append(f"  last heard from rank {peer}: "
                         f"t={self.last_heard[peer]:.9f}")
        return f"rank {self.rank}:\n" + "\n".join(lines)
