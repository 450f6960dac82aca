"""The snapshot lifecycle shared by ``repro bench`` and ``repro perf``:
canonical serialisation, loading with schema and kind checks, and one
comparison driven by a per-metric gate policy.

A snapshot is a JSON document (``schema_version`` 1)::

    {"schema_version": 1, "label": "<free-form>", "mode": "quick" | ...,
     "scenarios" | "benchmarks": {
       "<entry>": {"kind": ..., "params": {...},      # never compared
                   "<section>": {"<metric>": <number>, ...}, ...}}}

The group key *is* the kind: ``scenarios`` holds simulated results
(:mod:`repro.analysis.bench`), ``benchmarks`` host timings
(:mod:`repro.analysis.hostperf`).  Those modules own their matrices,
their runners and a ``policy(entry, section, metric)`` naming each
metric's :class:`Gate`; the rest of the lifecycle is here.  The rules
(gate kinds, missing entries, ``--advisory``, zero checked) are
tabulated in docs/performance.md, "Snapshots and gates".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

__all__ = [
    "SCHEMA_VERSION", "THRESHOLD", "EXACT", "RATIO", "TIMING", "Gate",
    "DRIFT", "ADVISORY", "IMPROVEMENT", "Entry", "rounded", "kind_of",
    "entries", "collect", "dumps", "write", "load", "Drift", "Comparison",
    "compare",
]

SCHEMA_VERSION = 1
#: relative movement a ratio or timing metric may show before it drifts
THRESHOLD = 0.30
_GROUPS = {"bench": "scenarios", "hostperf": "benchmarks"}

EXACT, RATIO, TIMING = "exact", "ratio", "timing"
DRIFT, ADVISORY, IMPROVEMENT = "DRIFT", "advisory", "improvement"


class Gate(NamedTuple):
    """How one metric is compared.

    ``exact`` values are reproduced bit for bit by the simulator: any
    movement drifts and always gates.  ``ratio`` values are quotients of
    two timings taken back to back, so they mean the same on every
    machine: they gate past :data:`THRESHOLD`, advisory run or not.
    ``timing`` values (seconds, rates, heap bytes) belong to the host:
    they gate past the threshold unless the run is advisory.
    """

    kind: str
    #: +1 bigger is worse, -1 smaller is worse, 0 any movement is a drift
    worse: int = 0
    #: reported, never gating (bench's opt-in wall clock)
    soft: bool = False


class Entry(NamedTuple):
    """One entry of a scenario or microbenchmark matrix."""

    name: str
    kind: str
    params: dict


def rounded(x: float, places: int = 6) -> float:
    """Fixed-precision snapshot float: still exact across same-seed
    runs, and keeps the JSON diffable by humans."""
    return round(float(x), places)


def kind_of(doc) -> Optional[str]:
    """``"bench"`` or ``"hostperf"``, read off the document's group key;
    ``None`` for a document with neither (or both)."""
    kinds = [kind for kind, group in _GROUPS.items()
             if isinstance(doc, dict) and group in doc]
    return kinds[0] if len(kinds) == 1 else None


def entries(doc: dict) -> dict:
    """The document's scenarios (bench) or benchmarks (hostperf)."""
    return doc[_GROUPS[kind_of(doc)]]


def collect(kind: str, matrix, run: Callable[[Entry], dict],
            only: Optional[str] = None,
            progress: Optional[Callable[[str], None]] = None,
            **header) -> dict:
    """Run ``matrix`` — only the entries whose name contains ``only``,
    when given — into a ``kind`` snapshot document.  ``run(entry)``
    returns the entry's sections; ``header`` is ``label``, ``mode``, ...
    A filter that matches no entry is a ``ValueError`` naming it."""
    chosen = [entry for entry in matrix if not only or only in entry.name]
    if not chosen:
        raise ValueError(f"no {kind} entry name contains {only!r}")
    group = {}
    for entry in chosen:
        if progress:
            progress(entry.name)
        group[entry.name] = {"kind": entry.kind, "params": entry.params,
                             **run(entry)}
    return {"schema_version": SCHEMA_VERSION, **header, _GROUPS[kind]: group}


# -- serialisation -----------------------------------------------------------

def dumps(doc: dict) -> str:
    """Canonical serialisation: sorted keys, fixed indent, trailing
    newline — byte-identical across same-seed runs."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write(doc: dict, path) -> None:
    """Write a snapshot as canonical JSON."""
    with open(path, "w") as fh:
        fh.write(dumps(doc))


def load(path, kind: str) -> dict:
    """Read a ``kind`` snapshot.  A file that is not JSON, a document of
    another schema version, of the other kind, or of neither is a
    ``ValueError`` naming the file — never a comparison that quietly
    checks nothing."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise ValueError(f"{path}: not a JSON document: {exc}") from None
    found = kind_of(doc)
    if found != kind:
        raise ValueError(f"{path}: {f'a {found}' if found else 'not a'} "
                         f"snapshot, expected {kind}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version {version!r} unsupported "
                         f"(expected {SCHEMA_VERSION})")
    return doc


# -- comparison --------------------------------------------------------------

@dataclass(frozen=True)
class Drift:
    """One value that moved, appeared or vanished against the baseline.

    ``verdict`` is ``DRIFT`` (gates), ``advisory`` (reported: softened
    timing, or coverage the baseline lacks) or ``improvement``."""

    entry: str
    section: str
    metric: str
    baseline: object
    current: object
    verdict: str

    @property
    def gating(self) -> bool:
        return self.verdict == DRIFT

    def describe(self) -> str:
        what = f"{self.section}.{self.metric}" if self.section else self.metric
        head = f"[{self.verdict}] {self.entry}: {what}"
        b, c = self.baseline, self.current
        if b is None:
            return f"{head} missing from baseline"
        if c is None:
            return f"{head} missing from current"
        if isinstance(b, str) or isinstance(c, str):
            # header fields (mode) drift as labels, not numbers
            return f"{head} {b!r} -> {c!r}"
        rel = 100.0 * (c - b) / abs(b) if b else math.inf
        return f"{head} {b!r} -> {c!r} ({rel:+.3g}%)"


@dataclass
class Comparison:
    """Outcome of :func:`compare`."""

    drifts: list[Drift] = field(default_factory=list)
    checked: int = 0

    @property
    def gating(self) -> list[Drift]:
        return [d for d in self.drifts if d.gating]

    @property
    def ok(self) -> bool:
        """No gating drift — and something was actually compared: a
        wrong baseline or a filter that matched nothing is not a pass."""
        return self.checked > 0 and not self.gating

    def report(self) -> str:
        n = len(self.gating)
        verdict = (f"{n} drift(s)" if n else "OK" if self.checked else
                   "nothing to gate (wrong baseline, or a filter that "
                   "matched nothing)")
        return "\n".join([f"compared {self.checked} metrics: {verdict}"]
                         + [f"  {d.describe()}" for d in self.drifts])


def _verdict(gate: Gate, b, c, advisory: bool) -> Optional[str]:
    softened = gate.kind == TIMING and (advisory or gate.soft)
    if c is None:
        return ADVISORY if softened else DRIFT
    if c == b:
        return None
    change = (c - b) / abs(b) if b else math.copysign(math.inf, c - b)
    change = change * gate.worse if gate.worse else abs(change)
    if abs(change) <= (0.0 if gate.kind == EXACT else THRESHOLD):
        return None
    if change < 0:
        return IMPROVEMENT
    return ADVISORY if softened else DRIFT


def _gated(name: str, entry: dict, policy: Callable):
    """``(section, metric, value, gate)`` of every compared value."""
    for section, values in entry.items():
        if isinstance(values, dict):
            for metric, value in values.items():
                gate = policy(name, section, metric)
                if gate is not None:
                    yield section, metric, value, gate


def compare(current: dict, baseline: dict,
            policy: Callable[[str, str, str], Optional[Gate]],
            partial: bool = False, advisory: bool = False) -> Comparison:
    """Diff ``current`` against ``baseline``, one :class:`Gate` per value.

    Every baseline entry is gated unless the run was ``partial``
    (collected under a name filter): then only what it collected is
    compared.  Entries and values only in ``current`` are new coverage:
    reported, never gating.  ``advisory`` softens timing drifts alone.
    """
    kind = kind_of(baseline)
    if kind is None or kind_of(current) != kind:
        raise ValueError(f"cannot compare a {kind_of(current)} snapshot "
                         f"against a {kind} baseline")
    cur_entries, base_entries = entries(current), entries(baseline)
    cmp = Comparison()
    if current.get("mode") != baseline.get("mode"):  # the matrices differ
        cmp.drifts.append(Drift("<header>", "", "mode", baseline.get("mode"),
                                current.get("mode"), DRIFT))
    for name, base in sorted(base_entries.items()):
        cur = cur_entries.get(name)
        if cur is None:
            if not partial:
                cmp.drifts.append(Drift(name, "", "<entry>", 1.0, None, DRIFT))
            continue
        for section, metric, bval, gate in _gated(name, base, policy):
            cmp.checked += 1
            cval = (cur.get(section) or {}).get(metric)
            verdict = _verdict(gate, bval, cval, advisory)
            if verdict:
                cmp.drifts.append(
                    Drift(name, section, metric, bval, cval, verdict))
        for section, metric, cval, _ in _gated(name, cur, policy):
            if (base.get(section) or {}).get(metric) is None:
                cmp.drifts.append(
                    Drift(name, section, metric, None, cval, ADVISORY))
    for name in sorted(set(cur_entries) - set(base_entries)):
        cmp.drifts.append(Drift(name, "", "<entry>", None, 1.0, ADVISORY))
    return cmp
