"""Shared-resource primitives for simulation processes.

:class:`Resource`
    A counted resource (capacity *n*): link lanes, DMA engines, SM
    quota.  ``request()`` returns an event that triggers when a slot is
    granted; ``try_acquire()`` takes a free slot without an event;
    ``release()`` frees it.

:class:`Store`
    An unbounded (or bounded) FIFO of Python objects with blocking
    ``get``.  Used for mailboxes and packet queues.

:class:`TokenPool`
    A counted pool of fungible tokens with blocking multi-token
    acquire, used e.g. to model SM occupancy where a kernel grabs *k*
    SMs at once.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Store", "TokenPool"]


class _Request(Event):
    """Event granted when the resource/pool admits the request."""

    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: int = 1):
        super().__init__(sim)
        self.amount = amount


class Resource:
    """Counted resource with FIFO admission.

    Example::

        link = Resource(sim, capacity=1)

        def sender(sim, link):
            req = link.request()
            yield req
            try:
                yield sim.timeout(wire_time)
            finally:
                link.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def try_acquire(self) -> bool:
        """Take a free slot now, with no request event; False when the
        resource is full (then :meth:`request` queues).  The holder
        frees the slot with a bare :meth:`release`."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self) -> _Request:
        req = _Request(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Optional[_Request] = None) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(self)
        else:
            self._in_use -= 1

    def cancel(self, req: _Request) -> None:
        """Withdraw a request whose owner will never consume it (the
        owning process was interrupted, e.g. by a fail-stop rank kill).

        A still-queued request is removed from the admission queue; a
        request whose slot was already granted releases it — either way
        the slot cannot leak to a dead waiter and stall survivors
        sharing the resource.
        """
        if req in self._queue:
            self._queue.remove(req)
        elif req.triggered:
            self.release(req)


class Store:
    """FIFO object store with blocking get and (optionally) bounded put.

    ``put`` returns an event (already triggered when capacity allows);
    ``get`` returns an event that triggers with the next item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class TokenPool:
    """A pool of ``capacity`` fungible tokens with multi-token acquire.

    Unlike :class:`Resource`, a single acquire may take several tokens
    at once.  Admission is FIFO: a large request at the head blocks
    smaller ones behind it (no starvation).
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"TokenPool capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._available = capacity
        self._queue: Deque[_Request] = deque()

    @property
    def available(self) -> int:
        return self._available

    def acquire(self, amount: int = 1) -> _Request:
        if amount < 1 or amount > self.capacity:
            raise SimulationError(
                f"acquire({amount}) out of range for pool of capacity {self.capacity}"
            )
        req = _Request(self.sim, amount)
        if not self._queue and self._available >= amount:
            self._available -= amount
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self, amount: int = 1) -> None:
        self._available += amount
        if self._available > self.capacity:
            raise SimulationError("TokenPool over-released")
        while self._queue and self._available >= self._queue[0].amount:
            req = self._queue.popleft()
            self._available -= req.amount
            req.succeed(self)
