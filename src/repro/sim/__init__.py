"""Deterministic discrete-event simulation engine.

A small, dependency-free kernel in the spirit of SimPy: a
:class:`~repro.sim.engine.Simulator` owns a time-ordered event heap;
*processes* are Python generators that ``yield`` events (timeouts, other
processes, resource requests) and are resumed when those events trigger.

Everything in the repro stack — GPU kernels, DMA copies, wire transfers,
MPI protocol state machines — advances this single clock, which makes
every experiment bit-for-bit deterministic and independent of host speed.
"""

from repro.sim.engine import Simulator, Event, Timeout, Process, AllOf, AnyOf, Interrupt
from repro.sim.resources import Resource, Store, TokenPool
from repro.sim.trace import SpanHandle, Trace, Tracer, TraceRecord, trace_scope

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Resource",
    "Store",
    "TokenPool",
    "Tracer",
    "Trace",
    "TraceRecord",
    "SpanHandle",
    "trace_scope",
]
