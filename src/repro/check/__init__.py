"""Static and dynamic analysis passes guarding the reproduction.

Four pass families, unified under ``python -m repro check``:

:mod:`repro.check.lint`
    Determinism linter — an AST walker that flags nondeterminism
    hazards (wall-clock reads, unseeded global RNG, builtin ``hash()``,
    ``id()`` in keys/ordering, environment reads outside config entry
    points, unordered set iteration) with ``RPRnnn`` rule codes and
    ``# repro: allow-RPRnnn`` suppression pragmas.

:mod:`repro.check.sanitize`
    Trace sanitizer / race detector — verifies that a trace (live
    :class:`~repro.sim.trace.Tracer` or exported Chrome-trace JSON)
    respects the simulator's own rules: serial-lane mutual exclusion,
    parent-span containment, per-message rendezvous causality, and
    exact critical-path segment tiling.

:mod:`repro.check.asan`
    Simulated-memory sanitizer — shadow-state tracking of
    :class:`~repro.gpu.buffer.DeviceBuffer` / pool lifecycles that
    turns double-release, use-after-free and end-of-run leaks into
    distinct, loud errors — plus an optional per-access log feeding the
    happens-before race detector.

:mod:`repro.check.hb`
    Happens-before engine — vector clocks over the trace's
    send/recv, rendezvous, collective-barrier and lane edges, with
    buffer-race, message-race, deadlock-cycle and WireImage-typestate
    detectors on top (``repro check --hb``).
"""

from repro.check.asan import BufferSanitizer
from repro.check.cli import run_check
from repro.check.hb import HappensBefore, HBChecker
from repro.check.lint import Violation, lint_paths, lint_source
from repro.check.sanitize import TraceSanitizer, TraceViolation

__all__ = [
    "BufferSanitizer",
    "Violation", "lint_paths", "lint_source",
    "TraceSanitizer", "TraceViolation",
    "HappensBefore", "HBChecker",
    "run_check",
]
