"""Simulated-memory sanitizer: shadow-state buffer lifecycle tracking.

The GPU substrate hands out :class:`~repro.gpu.buffer.DeviceBuffer`
objects from two sources — ``cudaMalloc`` (:meth:`Device.malloc` /
``alloc_untimed``) and the pre-allocated pools of
:class:`~repro.gpu.pool.BufferPool`.  The protocol layer checks buffers
out per message and must hand every one back exactly once.  Getting
that wrong is silent today in two of three cases:

* releasing a pooled buffer twice corrupts the free list (the same
  buffer is handed to two concurrent messages later);
* reading a buffer after returning it to the pool observes whatever
  the *next* owner wrote (the classic use-after-free);
* forgetting a release leaks the buffer until the run ends.

When enabled, a :class:`BufferSanitizer` rides on the simulator
(``sim.asan``) and every lifecycle site (malloc/free, pool make/
acquire/release, buffer read/write) reports to it.  Each buffer gets a
shadow record with a state machine::

    live  --pool_release-->  pool_free  --pool_acquire-->  live
    live  --free-->          freed

Violations raise distinct exceptions (:class:`~repro.errors.
DoubleReleaseError`, :class:`~repro.errors.UseAfterFreeError`,
:class:`~repro.errors.BufferLeakError`) at the offending call so the
failing simulation process and sim-time are in the traceback.

The sanitizer is pure bookkeeping: it consumes no simulated time and
touches neither the tracer nor the metrics registry, so an enabled run
is bit-identical (traces, snapshots) to a disabled one — the
determinism tests rely on exactly that.

A run enables it itself — there is no process-wide default:

* ``Cluster.run(..., asan=True)`` (asserted clean at successful
  completion; ``asan="record"`` also logs every access for
  :mod:`repro.check.hb`);
* :func:`repro.faults.chaos.run_chaos` (on by default);
* ``python -m repro check --asan`` for the CLI smoke.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import BufferLeakError, DoubleReleaseError, UseAfterFreeError

__all__ = ["AccessRecord", "BufferSanitizer", "ShadowState"]


class ShadowState:
    """Buffer lifecycle states tracked by the sanitizer."""

    LIVE = "live"            #: checked out (malloc'd or acquired from a pool)
    POOL_FREE = "pool_free"  #: sitting in a pool's free list
    FREED = "freed"          #: cudaFree'd — terminal


@dataclass
class _Shadow:
    """Shadow record for one :class:`DeviceBuffer`."""

    shadow_id: int
    device_id: int
    capacity: int
    label: str
    state: str
    pooled: bool
    #: sim-time of the last state transition (diagnostics only)
    t_last: float = 0.0

    def describe(self) -> str:
        return (f"buffer #{self.shadow_id} (device {self.device_id}, "
                f"{self.capacity}B, label {self.label!r}, state {self.state}, "
                f"last transition t={self.t_last:.9f})")


@dataclass(frozen=True)
class AccessRecord:
    """One content access observed by the sanitizer, in happens-before
    vocabulary: who (rank/process), what (buffer checkout + byte range),
    how (read or write), and where in the span tree it happened."""

    t: float
    rank: int        #: device_id of the accessed buffer
    shadow_id: int   #: sanitizer shadow record of the buffer
    epoch: int       #: checkout generation — bumped per pool acquire
    lo: int          #: byte range start (whole-buffer granularity today)
    hi: int          #: byte range end (exclusive)
    kind: str        #: ``read`` or ``write``
    span_id: Optional[int]  #: innermost open tracer span, if any
    proc: int        #: ordinal of the accessing sim process (program order)

    def describe(self) -> str:
        return (f"{self.kind} of buffer #{self.shadow_id} epoch "
                f"{self.epoch} bytes [{self.lo}, {self.hi}) on rank "
                f"{self.rank} by process p{self.proc} at t={self.t:.9f}")


class BufferSanitizer:
    """Shadow-state tracker for every device buffer of one run.

    With ``record_accesses=True`` every content access is additionally
    appended to :attr:`access_log` as an :class:`AccessRecord` — the
    input the happens-before race detector (:mod:`repro.check.hb`)
    consumes.  Recording is off by default: the log is pure bookkeeping
    (no tracer/metrics writes), but it holds a record per access and is
    only worth paying for when a race analysis will read it.
    """

    def __init__(self, record_accesses: bool = False):
        self._ids = itertools.count(1)
        self._shadows: dict[int, _Shadow] = {}  # keyed by shadow_id
        self.checks = 0  #: lifecycle events observed
        self.record_accesses = record_accesses
        self.access_log: list[AccessRecord] = []
        self._epochs: dict[int, int] = {}     # shadow_id -> checkout epoch
        self._procs: dict[Any, int] = {}      # process object -> ordinal
        self._proc_ids = itertools.count(1)

    def _proc_of(self, buf) -> int:
        proc = buf.device.sim.active_process
        if proc is None:
            return 0
        ordinal = self._procs.get(proc)
        if ordinal is None:
            ordinal = next(self._proc_ids)
            self._procs[proc] = ordinal
        return ordinal

    # -- registration -------------------------------------------------------
    def _shadow_of(self, buf) -> Optional[_Shadow]:
        sid = getattr(buf, "_shadow_id", None)
        return self._shadows.get(sid) if sid is not None else None

    def _now(self, buf) -> float:
        return buf.device.sim.now

    def on_alloc(self, buf) -> None:
        """A fresh buffer exists (cudaMalloc or pool pre-allocation)."""
        self.checks += 1
        shadow = _Shadow(
            shadow_id=next(self._ids),
            device_id=buf.device.device_id,
            capacity=buf.capacity,
            label=buf.label,
            state=ShadowState.LIVE,
            pooled=False,
            t_last=self._now(buf),
        )
        buf._shadow_id = shadow.shadow_id
        self._shadows[shadow.shadow_id] = shadow

    # -- transitions --------------------------------------------------------
    def on_free(self, buf) -> None:
        """cudaFree of a non-pooled buffer."""
        self.checks += 1
        s = self._shadow_of(buf)
        if s is None:
            return
        if s.state == ShadowState.FREED:
            raise DoubleReleaseError(f"double free of {s.describe()}")
        s.state = ShadowState.FREED
        s.t_last = self._now(buf)

    def on_pool_acquire(self, buf, label: str = "") -> None:
        """A pool handed ``buf`` out."""
        self.checks += 1
        s = self._shadow_of(buf)
        if s is None:
            return
        if s.state == ShadowState.LIVE and s.pooled:
            # The free list handed the same buffer to two owners — the
            # downstream corruption a double release causes.
            raise DoubleReleaseError(
                f"pool handed out {s.describe()} while it is still checked "
                f"out — a prior double release corrupted the free list")
        self._epochs[s.shadow_id] = self._epochs.get(s.shadow_id, 0) + 1
        s.state = ShadowState.LIVE
        s.pooled = True
        s.label = label or s.label
        s.t_last = self._now(buf)

    def on_pool_release(self, buf) -> None:
        """A buffer was returned to its pool."""
        self.checks += 1
        s = self._shadow_of(buf)
        if s is None:
            return
        if s.state == ShadowState.POOL_FREE:
            raise DoubleReleaseError(f"double release of {s.describe()}")
        if s.state == ShadowState.FREED:
            raise DoubleReleaseError(
                f"release of already-freed {s.describe()}")
        s.state = ShadowState.POOL_FREE
        s.pooled = True
        s.t_last = self._now(buf)

    def on_access(self, buf, kind: str) -> None:
        """A ``read``/``write``/``clear`` on the buffer's contents."""
        self.checks += 1
        s = self._shadow_of(buf)
        if s is None:
            return
        if s.state == ShadowState.POOL_FREE:
            raise UseAfterFreeError(
                f"{kind} of {s.describe()} after it was returned to its "
                f"pool — a later owner's data would be observed")
        if s.state == ShadowState.FREED:
            raise UseAfterFreeError(f"{kind} of freed {s.describe()}")
        if self.record_accesses:
            sim = buf.device.sim
            tracer = getattr(sim, "tracer", None)
            span = tracer.current_span() if tracer is not None else None
            self.access_log.append(AccessRecord(
                t=sim.now,
                rank=s.device_id,
                shadow_id=s.shadow_id,
                epoch=self._epochs.get(s.shadow_id, 0),
                lo=0,
                hi=s.capacity,
                kind=kind,
                span_id=span.span_id if span is not None else None,
                proc=self._proc_of(buf),
            ))

    # -- end-of-run ---------------------------------------------------------
    def leaks(self) -> list[str]:
        """Descriptions of buffers still checked out (pool-resident and
        cudaFree'd buffers are accounted for; ``live`` ones are not)."""
        return [s.describe() for s in self._shadows.values()
                if s.state == ShadowState.LIVE]

    def assert_clean(self) -> None:
        """Raise :class:`BufferLeakError` when any buffer leaked."""
        leaked = self.leaks()
        if leaked:
            raise BufferLeakError(
                f"{len(leaked)} buffer(s) still checked out at end of run:\n  "
                + "\n  ".join(leaked))

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for s in self._shadows.values():
            states[s.state] = states.get(s.state, 0) + 1
        return {"buffers": len(self._shadows), "events": self.checks,
                "states": states}
