"""The one shared-resource primitive: :class:`Resource`, a counted
resource of fungible tokens — a link's lane, a CUDA stream's in-order
slot, a device's SMs."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["Resource"]


class _Request(Event):
    """Event granted when the resource admits ``amount`` tokens."""

    __slots__ = ("amount",)


class Resource:
    """``capacity`` tokens with FIFO admission.  ``acquire(n)`` takes
    ``n`` free tokens on the spot and returns ``None`` (nothing is
    scheduled) when no earlier request is queued; otherwise it queues
    and returns the request event.  ``release(n)`` grants queued
    requests in order, so a large request at the head blocks smaller
    ones behind it (no starvation).  Example::

        link = Resource(sim)

        def sender(sim, link):
            req = link.acquire()
            if req is not None:
                yield req
            try:
                yield sim.timeout(wire_time)
            finally:
                link.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._available = capacity
        self._queue: Deque[_Request] = deque()

    @property
    def available(self) -> int:
        """Tokens free now."""
        return self._available

    @property
    def queued(self) -> int:
        """Requests waiting for tokens."""
        return len(self._queue)

    def acquire(self, n: int = 1) -> Optional[_Request]:
        """Take ``n`` tokens: ``None`` when they were free and nothing
        was queued ahead, else the queued request to wait for."""
        if n <= self._available and not self._queue and n > 0:
            self._available -= n
            return None
        if n < 1 or n > self.capacity:
            raise SimulationError(
                f"acquire({n}) out of range for capacity {self.capacity}")
        req = _Request(self.sim)
        req.amount = n
        self._queue.append(req)
        return req

    def release(self, n: int = 1) -> None:
        """Return ``n`` held tokens and grant what they admit.  A release
        of more than is held raises and changes nothing."""
        available = self._available + n
        if available > self.capacity or n < 1:
            raise SimulationError(
                f"release({n}) with {self.capacity - self._available} token(s) held")
        self._available = available
        if self._queue:
            self._grant()

    def cancel(self, req: _Request) -> None:
        """Withdraw a request whose owner will never consume it (the
        owning generator unwound while it waited: an exception, or a
        ``close()`` of a process the run left waiting).

        A still-queued request leaves the admission queue; a granted one
        returns its tokens — either way they cannot leak to a waiter
        that is gone and stall the others sharing the resource.
        """
        if req in self._queue:
            self._queue.remove(req)
            self._grant()
        elif req.triggered:
            self.release(req.amount)

    def _grant(self) -> None:
        queue = self._queue
        while queue and self._available >= queue[0].amount:
            req = queue.popleft()
            self._available -= req.amount
            req.succeed(self)
