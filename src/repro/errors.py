"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """Raised when the simulator runs out of events while processes are
    still waiting — e.g. a receive with no matching send.

    ``diagnostic`` optionally carries a per-rank dump of the matching
    state (posted receives, unexpected envelopes, in-flight waiters) so
    a hang can be debugged from the exception alone.
    """

    def __init__(self, message: str, diagnostic: str = ""):
        super().__init__(message if not diagnostic
                         else f"{message}\n{diagnostic}")
        self.diagnostic = diagnostic


class GpuError(ReproError):
    """Raised for invalid operations on the simulated GPU substrate."""


class OutOfDeviceMemoryError(GpuError):
    """Raised when a device allocation exceeds the configured capacity."""


class BufferPoolExhaustedError(GpuError):
    """Raised when a buffer pool cannot serve a request: larger than
    its buffers, or an injected transient exhaustion."""


class BufferSanitizerError(GpuError):
    """Base class for violations detected by the simulated-memory
    sanitizer (:mod:`repro.check.asan`)."""


class DoubleReleaseError(BufferSanitizerError):
    """Raised when a buffer is returned to its pool (or freed) twice."""


class UseAfterFreeError(BufferSanitizerError):
    """Raised when a buffer is read or written after it was freed or
    returned to its pool."""


class BufferLeakError(BufferSanitizerError):
    """Raised at end of run when buffers are still checked out."""


class BufferRaceError(BufferSanitizerError):
    """Raised when two conflicting accesses (at least one write) to the
    same buffer checkout are concurrent — no happens-before edge orders
    them (:mod:`repro.check.hb`)."""


class NetworkError(ReproError):
    """Raised for topology/routing problems (e.g. no path between GPUs)."""


class MpiError(ReproError):
    """Raised for MPI-level misuse (bad rank, unexpected envelope, ...)."""


class CompressionError(ReproError):
    """Raised when a compressor cannot process the given payload."""


class HeaderError(CompressionError):
    """Raised when a compression header fails to pack/unpack."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class ResilienceError(MpiError):
    """Base class for failures of the rendezvous resilience layer."""


class RendezvousTimeoutError(ResilienceError):
    """Raised when a rendezvous handshake (or data delivery) exceeds the
    configured timeout.  Carries the matching-state diagnostic of both
    endpoints so the stall is debuggable."""

    def __init__(self, message: str, diagnostic: str = ""):
        super().__init__(message if not diagnostic
                         else f"{message}\n{diagnostic}")
        self.diagnostic = diagnostic


class IntegrityError(ResilienceError):
    """Raised when a delivered payload fails its CRC32 check and no
    retransmission is possible."""


class RetryExhaustedError(ResilienceError):
    """Raised when a message could not be delivered intact within the
    configured retransmission budget."""
