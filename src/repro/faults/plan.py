"""Declarative fault plans.

A :class:`FaultPlan` is a frozen description of *what can go wrong and
how often*, decoupled from the machinery that makes it happen
(:class:`~repro.faults.injector.FaultInjector`).  Rates are independent
per-opportunity probabilities; the injector draws them from one seeded
RNG, so a given ``(plan, workload)`` pair replays the exact same fault
sequence on every run.

Fault classes
-------------
wire
    ``corrupt_rate`` flips one bit of a DATA payload per fabric
    crossing; ``drop_rate`` loses the payload entirely (the bytes still
    burn wire time — the transfer happened, the packet didn't survive).
gpu
    ``oom_rate`` fails ``cudaMalloc`` with a transient
    :class:`~repro.errors.OutOfDeviceMemoryError`; ``pool_fail_rate``
    fails a buffer-pool acquire with
    :class:`~repro.errors.BufferPoolExhaustedError`.
compression
    ``compress_fail_rate`` makes a compressor kernel raise;
    ``decompress_corrupt_rate`` silently flips a bit in decompressed
    output (a round-trip mismatch only an integrity check can catch).

``active_after``/``active_until`` bound the time window in which any
fault can fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigError

__all__ = ["FaultPlan"]

_RATE_FIELDS = (
    "corrupt_rate", "drop_rate",
    "oom_rate", "pool_fail_rate",
    "compress_fail_rate", "decompress_corrupt_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of a fault workload."""

    seed: int = 0
    # -- wire faults (DATA payloads only) -------------------------------
    corrupt_rate: float = 0.0
    drop_rate: float = 0.0
    # -- gpu faults -----------------------------------------------------
    oom_rate: float = 0.0
    pool_fail_rate: float = 0.0
    # -- compression faults ---------------------------------------------
    compress_fail_rate: float = 0.0
    decompress_corrupt_rate: float = 0.0
    # -- schedule -------------------------------------------------------
    active_after: float = 0.0
    active_until: float = math.inf

    def __post_init__(self):
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.active_after < 0.0 or self.active_until < self.active_after:
            raise ConfigError(
                f"invalid active window [{self.active_after}, {self.active_until}]")

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever fire (a zero-rate plan must be
        indistinguishable from having no fault plane installed)."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    @property
    def can_lose_data(self) -> bool:
        """True when DATA payloads may be lost outright, i.e. the
        resilience layer needs delivery timeouts to make progress."""
        return self.drop_rate > 0.0

    def describe(self) -> str:
        """One-line summary of the nonzero knobs (for CLI banners)."""
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            if f.name == "seed":
                continue
            v = getattr(self, f.name)
            if v != f.default:
                parts.append(f"{f.name}={v}")
        return " ".join(parts)
