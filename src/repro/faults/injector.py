"""The live fault plane: draws faults from a seeded RNG and fires them.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a :class:`~repro.sim.Simulator` (``sim.faults``).  Instrumented
sites — payload delivery, the device allocator, buffer pools, the
compression engine's codec calls — ask it whether to fail, and every
fired fault emits a zero-duration span on the ``faults`` track plus a
``faults.injected`` counter, so a chaos run is fully auditable from its
trace.

Determinism: decisions come from one ``numpy`` PCG64 stream seeded by
the plan, consulted in simulator callback order (which is itself
deterministic), so the same seed and plan replay the same fault
sequence bit-identically.  A zero-rate plan never draws, never emits,
and never yields — runs with it are trace-identical to runs with no
fault plane at all.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.utils.integrity import flip_bit

__all__ = ["FaultInjector", "DROPPED"]

#: sentinel returned by payload transfers whose DATA packet was lost
DROPPED = object()


class FaultInjector:
    """Per-run fault-decision engine, attached as ``sim.faults``."""

    def __init__(self, sim, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self._rng = np.random.Generator(np.random.PCG64(plan.seed))
        sim.faults = self

    # -- plumbing -------------------------------------------------------
    def _active(self) -> bool:
        return self.plan.active_after <= self.sim.now <= self.plan.active_until

    def _draw(self, rate: float) -> bool:
        return rate > 0.0 and self._active() and self._rng.random() < rate

    def emit(self, kind: str, rank: Optional[int] = None, **meta) -> None:
        """Record one fired fault: zero-duration span + counter."""
        tracer = self.sim.tracer
        if tracer is not None:
            now = self.sim.now
            tracer.span(now, now, "faults", kind, rank=rank, track="faults",
                        **meta)
            tracer.metrics.inc("faults.injected", kind=kind)

    # -- wire faults ----------------------------------------------------
    def transfer_outcome(self, src: int, dst: int, nbytes: int) -> str:
        """Fate of one DATA payload crossing the fabric:
        ``"ok"`` / ``"corrupt"`` / ``"drop"``."""
        if self._draw(self.plan.drop_rate):
            self.emit("drop", rank=src, src=src, dst=dst, nbytes=nbytes)
            return "drop"
        if self._draw(self.plan.corrupt_rate):
            self.emit("corrupt", rank=src, src=src, dst=dst, nbytes=nbytes)
            return "corrupt"
        return "ok"

    def corrupt_payload(self, payload):
        """A copy of ``payload`` with one RNG-chosen bit flipped."""
        return flip_bit(payload, int(self._rng.integers(0, 1 << 62)))

    # -- gpu faults -----------------------------------------------------
    def should_fail_malloc(self, device_id: int, nbytes: int) -> bool:
        if self._draw(self.plan.oom_rate):
            self.emit("oom", rank=device_id, nbytes=nbytes)
            return True
        return False

    def should_fail_pool(self, device_id: int, nbytes: int) -> bool:
        if self._draw(self.plan.pool_fail_rate):
            self.emit("pool_exhausted", rank=device_id, nbytes=nbytes)
            return True
        return False

    # -- compression faults ---------------------------------------------
    def should_fail_compress(self, codec_name: str) -> bool:
        if self._draw(self.plan.compress_fail_rate):
            self.emit("compress_fail", codec=codec_name)
            return True
        return False

    def maybe_corrupt_decompressed(self, codec_name: str, out):
        """Possibly return a bit-flipped copy of decompressed output (a
        silent round-trip mismatch)."""
        if self._draw(self.plan.decompress_corrupt_rate):
            self.emit("decompress_corrupt", codec=codec_name,
                      nbytes=int(getattr(out, "nbytes", len(out))))
            return self.corrupt_payload(out)
        return out

    def __repr__(self) -> str:
        return f"<FaultInjector {self.plan.describe()}>"
