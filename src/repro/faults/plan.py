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
fail-stop
    ``rank_failures`` is a tuple of :class:`RankFailure` specs, each
    killing one rank either at an absolute simulated time
    (``at_time``) or on its Nth message send (``after_sends``).  A
    killed rank never runs again; survivors detect the death through
    the failure detector in :mod:`repro.mpi.comm` and recover with
    ULFM-style revoke/agree/shrink (see ``docs/resilience.md``).

``active_after``/``active_until`` bound the time window in which any
fault can fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import ConfigError

__all__ = ["FaultPlan", "RankFailure"]

_RATE_FIELDS = (
    "corrupt_rate", "drop_rate",
    "oom_rate", "pool_fail_rate",
    "compress_fail_rate", "decompress_corrupt_rate",
)


@dataclass(frozen=True)
class RankFailure:
    """One fail-stop kill: crash ``rank`` at ``at_time`` seconds of
    simulated time, or just before its ``after_sends``-th message send
    (1-based), whichever is specified — exactly one must be.

    ``incarnation`` distinguishes instances of the same rank slot
    across restarts; the detector reports it so stale messages from a
    previous incarnation are attributable.
    """

    rank: int
    at_time: Optional[float] = None
    after_sends: Optional[int] = None
    incarnation: int = 0

    def __post_init__(self):
        if self.rank < 0:
            raise ConfigError(f"rank_failures: rank must be >= 0, got {self.rank}")
        if (self.at_time is None) == (self.after_sends is None):
            raise ConfigError(
                f"rank_failures: rank {self.rank} needs exactly one of "
                f"at_time / after_sends, got at_time={self.at_time} "
                f"after_sends={self.after_sends}")
        if self.at_time is not None and (
                self.at_time < 0.0 or not math.isfinite(self.at_time)):
            raise ConfigError(
                f"rank_failures: at_time must be finite and >= 0, "
                f"got {self.at_time}")
        if self.after_sends is not None and self.after_sends < 1:
            raise ConfigError(
                f"rank_failures: after_sends must be >= 1, "
                f"got {self.after_sends}")
        if self.incarnation < 0:
            raise ConfigError(
                f"rank_failures: incarnation must be >= 0, "
                f"got {self.incarnation}")

    def describe(self) -> str:
        trigger = (f"at_time={self.at_time}" if self.at_time is not None
                   else f"after_sends={self.after_sends}")
        return f"kill(rank={self.rank}, {trigger})"


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
    # -- fail-stop ------------------------------------------------------
    rank_failures: Optional[tuple] = None

    def __post_init__(self):
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.active_after < 0.0 or self.active_until < self.active_after:
            raise ConfigError(
                f"invalid active window [{self.active_after}, {self.active_until}]")
        if self.rank_failures is not None:
            kills = tuple(self.rank_failures)
            for k in kills:
                if not isinstance(k, RankFailure):
                    raise ConfigError(
                        f"rank_failures entries must be RankFailure, got {k!r}")
            ranks = [k.rank for k in kills]
            dupes = sorted({r for r in ranks if ranks.count(r) > 1})
            if dupes:
                raise ConfigError(
                    f"rank_failures: duplicate kill specs for rank(s) {dupes}")
            # An empty kill list is no kill list (describe() omits it).
            object.__setattr__(self, "rank_failures", kills or None)

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever fire (a zero-rate plan must be
        indistinguishable from having no fault plane installed)."""
        return (all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)
                and not self.has_rank_failures)

    @property
    def has_rank_failures(self) -> bool:
        """True when the plan kills at least one rank (fail-stop)."""
        return bool(self.rank_failures)

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
            if v in (f.default, None):
                continue
            if f.name == "rank_failures":
                parts.append(
                    "rank_failures=[" + ", ".join(k.describe() for k in v) + "]")
            else:
                parts.append(f"{f.name}={v}")
        return " ".join(parts)
