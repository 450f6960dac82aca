"""End-to-end determinism: same seed, same structured trace.

The simulator is advertised as deterministic (heap order with
insertion-order tie-break, seeded payloads, no wall-clock anywhere).
These tests pin that down at the observability layer: two identical
runs must agree in every layer of ``tests/pins.py`` — result, time,
spans, metrics, event count and exported bytes — not merely in the
final latency.
"""

import numpy as np

from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.omb.payload import make_payload

from tests import pins

LAYERS = pins.BASE + ("exports",)


def _send_1m(seed):
    """Figure 9-style pt2pt: one rendezvous MPC-OPT send across nodes."""
    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(make_payload("omb", 1 << 20, seed=seed), 1,
                                 tag=9)
            return None
        got = yield from comm.recv(0, tag=9)
        return np.asarray(got).nbytes
    return rank_fn


def _allgather(comm):
    out = yield from comm.allgather(make_payload("omb", 512 * 1024, seed=7))
    return len(out)


def run_pt2pt(seed=7, faults=None) -> pins.Run:
    return pins.Scenario(_send_1m(seed), CompressionConfig.mpc_opt(),
                         faults=faults).observe()


def run_collective() -> pins.Run:
    return pins.Scenario(_allgather, CompressionConfig.mpc_opt(),
                         ("longhorn", 2, 2)).observe()


def _fingerprint(run):
    return pins.digests(run, LAYERS)


def test_pt2pt_trace_deterministic():
    assert _fingerprint(run_pt2pt()) == _fingerprint(run_pt2pt())


def test_collective_trace_deterministic():
    assert _fingerprint(run_collective()) == _fingerprint(run_collective())


def test_zero_rate_fault_plan_is_trace_identical():
    """Installing the fault plane with a zero-rate plan must not perturb
    the run at all: every layer equals the run without a fault plane."""
    assert _fingerprint(run_pt2pt()) == \
        _fingerprint(run_pt2pt(faults=FaultPlan(seed=3)))


def test_faulted_run_trace_deterministic():
    """Same seed + same fault plan => bit-identical fault sequence,
    recovery actions, and Chrome-trace export."""
    plan = FaultPlan(seed=11, corrupt_rate=0.3, drop_rate=0.1,
                     compress_fail_rate=0.2)
    a, b = run_pt2pt(faults=plan), run_pt2pt(faults=plan)
    assert _fingerprint(a) == _fingerprint(b) and a.faults() == b.faults()
    # the plan actually fired (this is a chaotic run, not a no-op)
    assert a.tracer.metrics.counter_total("faults.injected") > 0


def test_different_fault_seed_changes_fault_sequence():
    a = run_pt2pt(faults=FaultPlan(seed=1, corrupt_rate=0.5))
    b = run_pt2pt(faults=FaultPlan(seed=2, corrupt_rate=0.5))
    assert _fingerprint(a) != _fingerprint(b)


def test_different_seed_changes_payload_not_structure():
    """Different payload contents change compressed sizes (and so
    timings) but never the span skeleton: same names, same nesting."""

    def skeleton(run):
        by_id = {r.span_id: r for r in run.tracer.records}
        return sorted(
            (r.category, r.label, r.rank, r.track,
             by_id[r.parent_id].label if r.parent_id in by_id else None)
            for r in run.tracer.records
        )

    assert skeleton(run_pt2pt(seed=1)) == skeleton(run_pt2pt(seed=2))
