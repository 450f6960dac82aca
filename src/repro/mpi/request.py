"""Nonblocking communication requests.

``isend``/``irecv`` return a :class:`Request`; ``yield from
request.wait()`` blocks the calling rank until completion.  Multiple
processes may wait on the same request, and work that is one step per
completion can be driven from the completion instead
(:meth:`Request.notify`).
"""

from __future__ import annotations

from typing import Any

from repro.errors import MpiError
from repro.sim import Simulator

__all__ = ["Request", "waitall"]


class Request:
    """Completion handle for a nonblocking operation.

    ``kind`` names the operation in diagnostics; with a ``peer`` it
    reads ``f"{kind}{peer}"`` (``"isend->3"``), formatted only when
    asked for — one request is made per message.

    :meth:`complete` and :meth:`fail` trigger the waiters in the order
    they were added, inside that call: an event that :meth:`wait`
    yields (its process resumes one scheduler hop later), or a driver
    given to :meth:`notify`, which schedules its next step at that same
    hop instead of resuming a process (a collective's exchange steps,
    see ``repro.mpi.collectives``).
    """

    __slots__ = ("sim", "_kind", "_peer", "data", "_done", "_failed",
                 "_waiters")

    def __init__(self, sim: Simulator, kind: str = "", peer: Any = None):
        self.sim = sim
        self._kind = kind
        self._peer = peer
        self.data: Any = None
        self._done = False
        self._failed: BaseException | None = None
        self._waiters: list = []

    @property
    def kind(self) -> str:
        return self._kind if self._peer is None else f"{self._kind}{self._peer}"

    def __repr__(self) -> str:
        state = ("failed" if self._failed is not None
                 else "done" if self._done else "pending")
        return f"<Request {self.kind} {state}>"

    @property
    def done(self) -> bool:
        return self._done

    def complete(self, data: Any = None) -> None:
        if self._done:
            raise MpiError(f"request {self.kind!r} completed twice")
        self._done = True
        self.data = data
        waiters = self._waiters
        if waiters:
            for ev in waiters:
                ev.succeed(data)
            waiters.clear()

    def fail(self, exc: BaseException) -> None:
        if self._done:
            raise MpiError(f"request {self.kind!r} failed after completion")
        self._done = True
        self._failed = exc
        for ev in self._waiters:
            ev.fail(exc)
            ev.defuse()
        self._waiters.clear()

    def test(self) -> bool:
        """Nonblocking completion check."""
        if self._failed is not None:
            raise self._failed
        return self._done

    def wait(self):
        """Generator subroutine: block until complete, return the data
        (received array for irecv, None for isend)."""
        if self._failed is not None:
            raise self._failed
        if self._done:
            return self.data
        ev = self.sim.event()
        self._waiters.append(ev)
        result = yield ev
        return result

    def notify(self, waiter) -> None:
        """Have the still-pending request call ``waiter.succeed(data)``
        from :meth:`complete`, or ``waiter.fail(exc)`` then
        ``waiter.defuse()`` from :meth:`fail` — what it does to the
        event of a :meth:`wait`, in that event's place in the order."""
        self._waiters.append(waiter)


def waitall(requests):
    """Generator subroutine: wait on every request, return their data
    in order."""
    out = []
    for r in requests:
        val = yield from r.wait()
        out.append(val)
    return out
