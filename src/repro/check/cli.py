"""Driver for ``python -m repro check``.

Runs any subset of the analysis passes (lint/trace/asan by default)
and a self-test, prints text or JSON, and returns a process exit code:

``--lint``
    Determinism linter over ``src/repro`` (or explicit ``--path``\\ s).

``--trace [FILE ...]``
    Trace sanitizer.  With files, each exported trace (Chrome JSON or
    binary RPRT, detected by magic) is checked as-is; without, a pt2pt
    scenario is run in-process per codec and its live tracer is
    checked.

``--asan``
    Buffer sanitizer: re-runs the in-process scenarios with shadow
    tracking enabled and asserts no lifecycle violations or leaks.

``--hb``
    Happens-before analysis (:mod:`repro.check.hb`): race,
    message-nondeterminism, deadlock-cycle and WireImage-typestate
    detectors over a vector-clock graph.  With ``--trace FILE...`` the
    exported traces are analyzed; without, the in-process smokes run
    with access recording so the buffer-race detector has real input.

``--selftest``
    Prove each pass still *fails* on the known-bad fixtures of
    :mod:`repro.check.fixtures`.

Every finding in ``--format json`` output carries its ``pass`` name
plus provenance (``trace`` file, ``fixture``, or source ``path``), so
a CI log line is attributable without context.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["run_check"]

#: codecs exercised by the in-process trace/asan smoke (the two paper
#: schemes plus the pipelined variant, whose traces are the gnarliest)
SMOKE_CONFIGS = ("mpc-opt", "zfp8", "zfp8-pipe")
#: keep-compressed collective smokes: 4-rank multi-hop runs whose
#: relayed wire images the ``collective`` sanitizer pass validates
SMOKE_COLLECTIVES = ("bcast", "allreduce")
_SMOKE_BYTES = 1 << 20


def _smoke_run(name: str, asan):
    """One in-process smoke under sanitizer mode ``asan``: a 2-rank
    pingpong under config ``name`` or, for a :data:`SMOKE_COLLECTIVES`
    name, that 4-rank keep-compressed collective under mpc-opt;
    returns the result."""
    from repro.analysis.bench import named_config
    from repro.mpi.cluster import Cluster
    from repro.network.presets import machine_preset
    from repro.omb.payload import make_payload

    collective = name in SMOKE_COLLECTIVES
    data = make_payload("dataset:msg_sppm" if collective else "omb",
                        _SMOKE_BYTES, seed=1)

    def rank_fn(comm):
        if name == "bcast":
            out = yield from comm.bcast(data if comm.rank == 0 else None,
                                        root=0)
        elif name == "allreduce":
            out = yield from comm.allreduce(data)
        elif comm.rank == 0:
            yield from comm.send(data, dest=1, tag=7)
            out = yield from comm.recv(source=1, tag=8)
        else:
            out = yield from comm.recv(source=0, tag=7)
            yield from comm.send(out, dest=0, tag=8)
        return out.nbytes

    cluster = Cluster(machine_preset("longhorn"), nodes=2,
                      gpus_per_node=2 if collective else 1)
    return cluster.run(rank_fn, args=(), asan=asan,
                       config=named_config("mpc-opt" if collective else name))


def _pass_lint(paths) -> dict:
    from repro.check.lint import lint_paths

    violations = lint_paths(paths)
    return {
        "pass": "lint",
        "ok": not violations,
        "checked": [str(p) for p in paths],
        "findings": [dict(v.as_dict(), **{"pass": "lint"})
                     for v in violations],
        "lines": [v.describe() for v in violations],
    }


def _check_trace(trace, result):
    from repro.check.sanitize import TraceSanitizer

    return TraceSanitizer(trace).check_all(), None


def _check_hb(trace, result):
    from repro.check.hb import HBChecker

    if result is None:  # an exported trace carries no access log
        return HBChecker(trace).check_all(), None
    checker = HBChecker.from_result(result)
    return checker.check_all(), (f"hb: {len(checker.records)} spans, "
                                 f"{len(checker.access_log)} recorded accesses")


def _check_asan(trace, result):
    # the run itself was the check: a lifecycle crime raises out of it
    stats = result.asan.stats()
    return [], (f"clean: {stats['buffers']} buffers, "
                f"{stats['events']} lifecycle events")


#: pass name -> (its checker, the ``asan=`` mode of its in-process runs).
#: A checker takes ``(trace, result)`` — a loaded file (``result`` is
#: None) or a finished smoke run (``trace`` is its tracer) — and returns
#: its violations plus an optional summary line.  ``hb`` runs with
#: access recording so the buffer-race detector sees real input, not
#: just span meta.
_TRACE_PASSES = {
    "trace": (_check_trace, False),
    "hb": (_check_hb, "record"),
    "asan": (_check_asan, True),
}


def _pass_over_traces(name: str, traces) -> dict:
    """Run pass ``name`` over ``traces`` — ``(file, loaded Trace)``
    pairs, shared by every pass of this invocation — or, given none,
    over the in-process smokes."""
    from repro.errors import BufferSanitizerError

    check, asan = _TRACE_PASSES[name]
    findings, lines, checked = [], [], []
    # (description, provenance, line prefix, loaded trace)
    sources = [(str(f), str(f), f"{f}: ", trace) for f, trace in traces] or (
        [(f"in-process pt2pt [{n}]", n, f"[{n}] ", None)
         for n in SMOKE_CONFIGS]
        + [(f"in-process {op} [mpc-opt]", op, f"[{op}] ", None)
           for op in SMOKE_COLLECTIVES])
    for desc, origin, prefix, trace in sources:
        checked.append(desc)
        result = None
        if trace is None:
            try:
                result = _smoke_run(origin, asan)
            except BufferSanitizerError as exc:
                findings.append({"pass": name, "fixture": origin,
                                 "message": str(exc)})
                lines.append(f"{prefix}{exc}")
                continue
            trace = result.tracer
        violations, summary = check(trace, result)
        for v in violations:
            findings.append(dict(v.as_dict(), **{"pass": name}, trace=origin))
            lines.append(f"{prefix}{v.describe()}")
        if summary:
            lines.append(f"{prefix}{summary}")
    return {"pass": name, "ok": not findings, "checked": checked,
            "findings": findings, "lines": lines}


def _pass_selftest() -> dict:
    from repro.check import fixtures
    from repro.check.hb import HBChecker
    from repro.check.lint import RULES, lint_source
    from repro.check.sanitize import TraceSanitizer
    from repro.errors import (BufferLeakError, BufferRaceError,
                              DoubleReleaseError, UseAfterFreeError)

    failures = []  # (fixture, message)

    codes = {v.code for v in lint_source(fixtures.BAD_LINT_SOURCE)}
    missing = sorted(set(RULES) - codes)
    if missing:
        failures.append(("BAD_LINT_SOURCE",
                         f"linter missed {', '.join(missing)} on the "
                         f"known-bad source"))
    if not TraceSanitizer(fixtures.overlap_records()).check_serial_lanes():
        failures.append(("overlap_records",
                         "race detector missed overlapping stream-lane "
                         "spans"))
    if not TraceSanitizer(fixtures.acausal_records()).check_causality():
        failures.append(("acausal_records",
                         "causality check missed a backwards handshake"))
    retry = TraceSanitizer(fixtures.early_retry_records()).check_causality()
    if len(retry) != 1:
        failures.append(("early_retry_records",
                         "causality check paired a retried completion with "
                         f"another attempt's transfer (found {len(retry)}/1)"))
    coll = TraceSanitizer(fixtures.bad_collective_records()).check_collectives()
    if len(coll) < 3:
        failures.append(("bad_collective_records",
                         "collective check missed a defect on the known-bad "
                         f"relayed hops (found {len(coll)}/3)"))

    for fn, exc_type in ((fixtures.run_double_release, DoubleReleaseError),
                         (fixtures.run_use_after_free, UseAfterFreeError),
                         (fixtures.run_leak, BufferLeakError),
                         (fixtures.run_buffer_race, BufferRaceError)):
        try:
            fn()
            failures.append((fn.__name__,
                             f"did not raise {exc_type.__name__}"))
        except exc_type:
            pass

    # the three trace-level HB detectors on their known-bad fixtures
    if not HBChecker(fixtures.message_race_records()).check_message_races():
        failures.append(("message_race_records",
                         "message-race detector missed a wildcard match "
                         "with a concurrent rival send"))
    dead = HBChecker(fixtures.deadlock_records()).check_deadlock()
    if len(dead) != 1:
        failures.append(("deadlock_records",
                         "deadlock analyzer missed the 3-rank wait-for "
                         f"cycle (found {len(dead)}/1)"))
    wire = HBChecker(fixtures.bad_wire_records()).check_typestate()
    if len(wire) != 2 or {v.check for v in wire} != {"wire-typestate"}:
        failures.append(("bad_wire_records",
                         "typestate check missed a WireImage lifecycle "
                         f"defect (found {len(wire)}/2)"))

    return {"pass": "selftest", "ok": not failures,
            "checked": ["known-bad fixtures"],
            "findings": [{"pass": "selftest", "fixture": fx, "message": msg}
                         for fx, msg in failures],
            "lines": [f"{fx}: {msg}" for fx, msg in failures]
            or ["all known-bad fixtures detected"]}


def run_check(lint: bool = False, trace: bool = False, asan: bool = False,
              selftest: bool = False, hb: bool = False, trace_files=(),
              paths=(), fmt: str = "text") -> int:
    """Run the selected passes (lint/trace/asan when none selected);
    returns the process exit code (0 clean, 1 findings)."""
    if not (lint or trace or asan or selftest or hb):
        lint = trace = asan = True

    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]

    traces = []
    if trace or hb:
        from repro.analysis.traceio import load_trace_records

        for f in trace_files:
            try:
                traces.append((f, load_trace_records(f)))
            except (OSError, ValueError) as exc:  # RprtError is a ValueError
                raise SystemExit(f"cannot read {f}: {exc}")

    results = []
    if lint:
        results.append(_pass_lint(list(paths)))
    if trace:
        results.append(_pass_over_traces("trace", traces))
    if asan:
        results.append(_pass_over_traces("asan", ()))
    if hb:
        results.append(_pass_over_traces("hb", traces))
    if selftest:
        results.append(_pass_selftest())

    ok = all(r["ok"] for r in results)
    if fmt == "json":
        doc = {"ok": ok, "passes": results}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in results:
            status = "ok" if r["ok"] else "FAIL"
            print(f"[{status}] {r['pass']}: checked "
                  f"{', '.join(r['checked'])}")
            for line in r["lines"]:
                print(f"    {line}")
        print("check: clean" if ok else "check: violations found")
    return 0 if ok else 1
