"""The eager protocol and the front half of every receive, as callback
state machines.

A message below the eager threshold (and any self-send) is untouched by
the compression framework, so it must cost the host next to nothing:
no :class:`~repro.sim.engine.Process`, no generator, no event object
and no link request while its links are free.  Each operation is one small object whose methods are
scheduled with :meth:`~repro.sim.engine.Simulator.call_later`, which
puts a ``(method, value)`` pair on the calendar:

* :class:`EagerSend` — software overhead, then the wire, which the send
  drives itself: it takes its route's links
  (:meth:`~repro.network.links.Route.acquire`, queuing only on a busy
  one), sets the wire timer once every link is held, and on landing
  releases them and records the ``network`` span and ``wire.*``
  counters (:meth:`~repro.network.links.Route.release` /
  :meth:`~repro.network.links.Route.record`).  It then hands *itself*
  to the receiver's matching engine — it is the
  :class:`~repro.mpi.message.Eager` envelope — and its request
  completes;
* :class:`Recv` — software overhead, then the receive is posted with a
  callback (from the start event of the eager send issued just before
  it, when a collective's exchange step issues the two together).  An
  EAGER envelope completes the request one scheduler hop after the
  match; an RTS spawns the communicator's rendezvous receive from that
  point (its first resume is that same hop).

**Ordering.**  Same-instant events run in insertion order, and that
order decides who wins a shared link, so each step below is scheduled
from the same place in the order as the generator protocol it replaced:
when a message lands, the sender's waiter is woken one hop after the
wire event and the receiver's waiter two hops after it (wire -> match ->
waiter).  Completing the receive straight from the wire callback would
wake the receiver first and moves contended runs by a microsecond; the
match hop stays.  See ``docs/performance.md``, "Message path".
"""

from __future__ import annotations

from repro.mpi.message import CONTROL_PACKET_BYTES, Eager
from repro.mpi.wire import WireImage

__all__ = ["EagerSend", "Recv", "SETUP_TIME"]

#: CPU-side software overhead charged per point-to-point operation
SETUP_TIME = 1.0e-6

# Both operations run once per message, so they read the communicator's
# and runtime's fields directly instead of through their accessors.


class EagerSend(Eager):
    """One eager (or self) send, and the envelope it delivers:
    ``payload`` is user data or a :class:`~repro.mpi.wire.WireImage`,
    delivered as it is."""

    __slots__ = ("_comm", "_req", "_parent", "_nbytes", "_then", "_route",
                 "_reqs", "_waiting", "_duration", "_t0")

    def __init__(self, comm, payload, nbytes: int, dest: int, tag: int, req,
                 parent):
        self.src = comm._grank
        self.dst = dest
        self.tag = tag
        self.seq = 0  # drawn when the send starts
        self.payload = payload
        self._comm = comm
        self._req = req
        #: the span the issuing rank has open: the parent of what the
        #: callbacks record later, outside any process
        self._parent = parent
        #: what the wire carries: an EAGER packet piggybacks no
        #: compression header
        self._nbytes = nbytes + CONTROL_PACKET_BYTES
        #: the first step of an operation issued right after this one
        self._then = None
        comm._rt.sim.call_later(SETUP_TIME, self._start)

    def _start(self, _) -> None:
        rt = self._comm._rt
        rt._seq += 1
        self.seq = rt._seq
        src, dst = self.src, self.dst
        if dst == src:
            self._arrived()  # no wire: deliver the envelope directly
        else:
            # Cut-through: every link of the route is held together for
            # its total latency plus serialization at the bottleneck.
            topo = rt.topology
            rec = topo._routes.get((src, dst))
            route, lat, bw = rec if rec is not None else topo._route(src, dst)
            self._route = route
            duration = lat + self._nbytes / bw
            reqs = self._reqs = route.acquire()
            if reqs is None:  # every link was free
                sim = rt.sim
                self._t0 = sim._now
                sim.call_later(duration, self._landed)
            else:
                self._duration = duration
                waiting = [req for req in reqs if req is not None]
                self._waiting = len(waiting)
                for req in waiting:
                    req.add_callback(self._granted)
        if self._then is not None:
            self._then(None)

    def _granted(self, _event) -> None:
        self._waiting -= 1
        if not self._waiting:  # every link is held
            sim = self._comm._rt.sim
            self._t0 = sim._now
            sim.call_later(self._duration, self._landed)

    def _landed(self, _) -> None:
        route = self._route
        route.release(self._reqs)
        sim = self._comm._rt.sim
        if sim.tracer is not None:
            route.record(sim.tracer, "eager", self._nbytes, self._t0,
                         sim._now, self._parent)
        self._arrived()

    def _arrived(self) -> None:
        comm = self._comm
        rt = comm._rt
        rt._matching[self.dst].deliver_envelope(self, self._parent)
        if rt.sim.tracer is not None:
            comm._count_send("self" if self.dst == self.src
                             else "wire_eager"
                             if isinstance(self.payload, WireImage)
                             else "eager")
        # Before anything the match hop triggers: the sender is woken
        # one hop after the wire, the receiver two.
        self._req.complete()


class Recv:
    """One receive up to its envelope match;
    ``comm._recv_proc(pkt, req)`` takes a matched RTS from there."""

    __slots__ = ("_comm", "_req", "_parent", "_source", "_tag")

    def __init__(self, comm, source: int, tag: int, req, parent, after=None):
        self._comm = comm
        self._req = req
        #: as :class:`EagerSend`'s
        self._parent = parent
        self._source = source
        self._tag = tag
        if after is not None:
            # Issued right after ``after`` (an EagerSend not yet started):
            # its start event would be followed by ours in the same
            # bucket, so it runs our first step too — same order, one
            # event fewer.
            after._then = self._post
        else:
            comm._rt.sim.call_later(SETUP_TIME, self._post)

    def _post(self, _) -> None:
        comm = self._comm
        comm._rt._matching[comm._grank].post(self._source, self._tag,
                                             self._matched, self._parent)

    def _matched(self, pkt) -> None:
        comm = self._comm
        sim = comm._rt.sim
        if isinstance(pkt, Eager):
            sim.call_later(0.0, self._complete, pkt)
            return
        proc = sim.process(comm._recv_proc(pkt, self._req),
                           name=("irecv", comm._grank, "<-", self._source))
        if sim.tracer is not None:
            sim.tracer.reparent(proc, self._parent)

    def _complete(self, pkt) -> None:
        self._req.complete(pkt.payload)
