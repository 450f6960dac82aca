"""Rendezvous resilience: retry policy, timeouts, and circuit breakers.

The protocol layer (:mod:`repro.mpi.comm`) consults a
:class:`ResilienceConfig` — five fields: the retry budget, two
timeouts, the breaker's threshold and cool-down — for how hard to fight
back when the fault plane (:mod:`repro.faults`) misbehaves:

* **Integrity** — every rendezvous message carries a CRC32 of the data
  the receiver should end up with (the clean decompression round-trip
  for compressed sends, the raw bytes otherwise), verified after
  decompression.  Not a knob: the stamp rides control fields that exist
  anyway and costs no simulated time.
* **Retransmission** — on a CRC mismatch, a decode failure, or a data
  timeout the receiver NACKs and the sender retransmits, up to
  ``max_retries`` times.  A transient allocation fault, or a post-decode
  CRC mismatch on bytes already verified, is retried in place on the
  same budget.  Every retry first backs off on the simulated clock:
  exponential, with jitter from a run-seeded RNG — a fixed curve
  (``BACKOFF_*``, ``JITTER``, ``JITTER_SEED``), not a knob.
* **Timeouts** — optional rendezvous handshake and data-delivery
  timeouts convert silent stalls into a diagnosable
  :class:`~repro.errors.RendezvousTimeoutError`.  They default to off so
  an unmatched send still surfaces as the classic
  :class:`~repro.errors.DeadlockError`.
* **Circuit breaker** — per ``(sender, receiver)`` pair, N consecutive
  compressor/integrity failures trip the breaker and sends fall back to
  uncompressed wire payloads (generalizing the CR >= 1 fallback); after a
  cool-down the breaker half-opens and lets a trial compression
  through.

Everything here is host-side bookkeeping except the backoff sleeps —
with no faults firing, none of it consumes simulated time or emits
spans, which is what keeps a zero-rate fault plan trace-identical to no
fault plane at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

__all__ = ["ResilienceConfig", "CircuitBreaker"]

#: generous defaults (simulated seconds), only enabled when a plan can
#: actually lose data.  The data timeout is per delivery attempt; the
#: handshake timeout must cover a receiver still draining a *backlog*
#: of earlier recoveries (each up to ``max_retries`` data timeouts), so
#: it sits orders of magnitude higher — on a microsecond-scale fabric,
#: ten simulated seconds without a CTS means the peer is gone, and
#: simulated seconds cost nothing to wait through.
DEFAULT_HANDSHAKE_TIMEOUT = 10.0
DEFAULT_DATA_TIMEOUT = 0.25

#: backoff before retry ``attempt``: ``BACKOFF_BASE * BACKOFF_FACTOR **
#: (attempt - 1)`` simulated seconds, capped at ``BACKOFF_MAX``, plus a
#: uniform ``JITTER`` fraction of itself drawn from a run-seeded RNG
BACKOFF_BASE = 20e-6
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5e-3
JITTER = 0.25
#: seed of every run's jitter RNG (``Runtime.resil_rng``)
JITTER_SEED = 0


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilient rendezvous pipeline."""

    #: retransmissions allowed per message before giving up
    max_retries: int = 8
    #: RTS->CTS handshake timeout (None = wait forever)
    handshake_timeout: Optional[float] = None
    #: CTS->DATA delivery timeout (None = wait forever)
    data_timeout: Optional[float] = None
    #: consecutive failures that trip a peer's compression breaker
    #: (0 disables the breaker)
    breaker_threshold: int = 3
    #: simulated seconds an open breaker waits before half-opening
    breaker_cooldown: float = 2e-3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("handshake_timeout", "data_timeout"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name} must be positive or None, got {v}")
        if self.breaker_threshold < 0 or self.breaker_cooldown < 0:
            raise ConfigError("breaker parameters must be >= 0")

    @classmethod
    def for_plan(cls, plan) -> "ResilienceConfig":
        """The policy matching a fault plan: timeouts are armed only
        when the plan can actually lose data, so fault-free (and
        zero-rate) runs keep their exact deadlock semantics."""
        if plan is None or not plan.can_lose_data:
            return cls()
        return cls(handshake_timeout=DEFAULT_HANDSHAKE_TIMEOUT,
                   data_timeout=DEFAULT_DATA_TIMEOUT)

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter drawn
        from the run's dedicated RNG (seeded with :data:`JITTER_SEED`)."""
        base = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        return base * (1.0 + JITTER * rng.random())


class CircuitBreaker:
    """Per-peer compression circuit breaker (CLOSED/OPEN/HALF_OPEN).

    CLOSED counts consecutive failures; at ``threshold`` it OPENs and
    :meth:`allow` vetoes compression until ``cooldown`` simulated
    seconds pass, then HALF_OPEN admits a trial — success closes the
    breaker, failure re-opens it (and restarts the cool-down).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, cooldown: float, on_transition=None):
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._on_transition = on_transition

    def _move(self, state: str, now: float) -> None:
        if state != self.state:
            old, self.state = self.state, state
            if self._on_transition is not None:
                self._on_transition(old, state, now)

    def allow(self, now: float) -> bool:
        """May the next send attempt compression?"""
        if self.threshold <= 0:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cooldown:
                self._move(self.HALF_OPEN, now)
                return True
            return False
        return True  # CLOSED or HALF_OPEN (trial in flight)

    def record_failure(self, now: float) -> None:
        if self.threshold <= 0:
            return
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self.opened_at = now
            self._move(self.OPEN, now)

    def record_success(self, now: float) -> None:
        self.failures = 0
        if self.state != self.CLOSED:
            self._move(self.CLOSED, now)

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} failures={self.failures}>"
