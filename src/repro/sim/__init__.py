"""Deterministic discrete-event simulation engine.

A small, dependency-free kernel in the spirit of SimPy: a
:class:`~repro.sim.engine.Simulator` owns a time-ordered event heap;
*processes* are Python generators that ``yield`` events (timeouts, other
processes, queued resource requests) and are resumed when those events
trigger.  :meth:`Simulator.run` is the one dispatcher, and
:class:`~repro.sim.resources.Resource` the one contention primitive: an
acquire that does not have to wait schedules nothing.

Everything in the repro stack — GPU kernels, DMA copies, wire transfers,
MPI protocol state machines — advances this single clock, which makes
every experiment bit-for-bit deterministic and independent of host speed.
"""

from repro.sim.engine import Simulator, Event, Timeout, Process, AllOf, AnyOf
from repro.sim.resources import Resource
from repro.sim.trace import SpanHandle, Trace, Tracer, TraceRecord, trace_scope

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Resource",
    "Tracer",
    "Trace",
    "TraceRecord",
    "SpanHandle",
    "trace_scope",
]
