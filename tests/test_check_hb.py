"""Happens-before engine + detectors (repro.check.hb) tests.

Covers the PR 9 acceptance criteria: the vector-clock relation itself
(lane / tree / rendezvous / collective-barrier / fail-stop edges, the
time guard, cycle reporting), each of the four detectors on its
known-bad fixture, the clean in-process smoke, and identical findings
across both committed golden trace formats.
"""

from pathlib import Path

import pytest

from repro.check import fixtures
from repro.check.hb import HappensBefore, HBChecker
from repro.errors import BufferRaceError
from repro.sim.trace import TraceRecord

DATA = Path(__file__).parent / "data"
GOLDEN_JSON = DATA / "golden_trace_mpc.json"
GOLDEN_RPRT = DATA / "golden_trace_mpc.rprt"


def _rec(t0, t1, category, label, meta=None, rank=0, track="main",
         span_id=0, parent_id=None):
    return TraceRecord(t0, t1, category, label, meta or {}, rank, track,
                       span_id, parent_id)


# -- the relation ------------------------------------------------------------

def test_serial_lane_program_order():
    hb = HappensBefore([
        _rec(0.0, 1e-6, "compression_kernel", "k0", track="stream0",
             span_id=1),
        _rec(2e-6, 3e-6, "compression_kernel", "k1", track="stream0",
             span_id=2),
    ])
    assert hb.hb_span(1, 2)
    assert not hb.hb_span(2, 1)
    assert not hb.concurrent_spans(1, 2)


def test_parallel_tracks_are_concurrent():
    hb = HappensBefore([
        _rec(0.0, 1e-6, "compression_kernel", "k0", track="stream0",
             span_id=1),
        _rec(2e-6, 3e-6, "compression_kernel", "k1", track="stream1",
             span_id=2),
    ])
    # later in time but on an independent lane: no ordering either way
    assert hb.concurrent_spans(1, 2)


def test_main_track_is_not_a_serial_lane():
    # two processes interleave on "main" freely; time alone is no edge
    hb = HappensBefore([
        _rec(0.0, 1e-6, "compute", "a", span_id=1),
        _rec(2e-6, 3e-6, "compute", "b", span_id=2),
    ])
    assert hb.concurrent_spans(1, 2)


def test_rendezvous_orders_sender_before_receiver():
    seq = {"seq": 4}
    hb = HappensBefore([
        _rec(0.0, 1e-6, "pipeline", "sender_prepare", dict(seq), span_id=1),
        _rec(1e-6, 1.2e-6, "pipeline", "rts", dict(seq, dst=1, tag=0),
             span_id=2),
        _rec(1.3e-6, 1.5e-6, "pipeline", "cts", dict(seq, dst=0), rank=1,
             span_id=3),
        _rec(1.6e-6, 2e-6, "pipeline", "wire_transfer",
             dict(seq, nbytes=64), span_id=4),
        _rec(2e-6, 2.5e-6, "pipeline", "receiver_complete", dict(seq),
             rank=1, span_id=5),
    ])
    # the full chain is ordered end to end, across ranks
    assert hb.hb_span(1, 5)
    assert hb.hb_span(2, 5)
    assert not hb.hb_span(5, 1)


def test_time_guard_drops_acausal_meta_edges():
    # the acausal fixture (cts before rts, wire before cts ends) must
    # not create a cycle: contradictory edges are dropped, not fatal
    hb = HappensBefore(fixtures.acausal_records())
    assert hb.cyclic_nodes == []
    assert hb.cycle_violations() == []


def test_instantaneous_contradiction_is_a_cycle_finding():
    # two zero-width spans at the same instant whose lane order and
    # rendezvous order disagree: the time guard cannot break the tie,
    # so the cycle is reported and the spans stay unordered
    hb = HappensBefore([
        _rec(0.0, 0.0, "pipeline", "cts", {"seq": 5}, track="stream0",
             span_id=1),
        _rec(0.0, 0.0, "pipeline", "rts", {"seq": 5}, track="stream0",
             span_id=2),
    ])
    assert hb.cyclic_nodes
    (v,) = hb.cycle_violations()
    assert v.check == "hb-cycle"
    assert v.span_ids == (1, 2)
    assert hb.concurrent_spans(1, 2)


def test_collective_barrier_needs_instance_meta():
    def records(meta):
        return [
            _rec(0.0, 5e-6, "collective", "allreduce",
                 dict(meta, size=2), rank=0, span_id=1),
            _rec(2e-6, 3e-6, "collective", "allreduce",
                 dict(meta, size=2), rank=1, span_id=2),
        ]

    hb = HappensBefore(records({"comm": 1, "coll_seq": 0}))
    a0 = next(r for r in hb.records if r.rank == 0)
    a1 = next(r for r in hb.records if r.rank == 1)
    # nobody exits before everybody entered: S(rank1) -> E(rank0)
    assert hb.hb_node(hb._s(a1), hb._e(a0))
    assert hb.hb_node(hb._s(a0), hb._e(a1))

    # pre-PR-9 traces without (comm, coll_seq) get no barrier
    hb = HappensBefore(records({}))
    a0 = next(r for r in hb.records if r.rank == 0)
    a1 = next(r for r in hb.records if r.rank == 1)
    assert not hb.hb_node(hb._s(a1), hb._e(a0))


def test_rooted_collectives_get_no_barrier():
    hb = HappensBefore([
        _rec(0.0, 5e-6, "collective", "bcast",
             {"comm": 1, "coll_seq": 0}, rank=0, span_id=1),
        _rec(2e-6, 3e-6, "collective", "bcast",
             {"comm": 1, "coll_seq": 0}, rank=1, span_id=2),
    ])
    a0 = next(r for r in hb.records if r.rank == 0)
    a1 = next(r for r in hb.records if r.rank == 1)
    assert not hb.hb_node(hb._s(a1), hb._e(a0))


def test_parent_child_tree_edges():
    hb = HappensBefore([
        _rec(0.0, 5e-6, "compute", "parent", span_id=1),
        _rec(1e-6, 2e-6, "compute", "child", span_id=2, parent_id=1),
        _rec(6e-6, 7e-6, "compute", "after", track="stream0", span_id=3),
    ])
    # S(parent) -> S(child) and E(child) -> E(parent) order the pair's
    # nodes, but neither span fully precedes the other
    assert not hb.hb_span(1, 2) and not hb.hb_span(2, 1)
    p = next(r for r in hb.records if r.span_id == 1)
    c = next(r for r in hb.records if r.span_id == 2)
    assert hb.hb_node(hb._s(p), hb._s(c))
    assert hb.hb_node(hb._e(c), hb._e(p))


# -- buffer races ------------------------------------------------------------

def test_buffer_race_fixture_raises():
    with pytest.raises(BufferRaceError):
        fixtures.run_buffer_race()


def test_same_process_writes_are_program_ordered():
    import numpy as np

    from repro.sim.trace import Tracer

    sim, pool = fixtures._pool_sim()
    sim.asan.record_accesses = True
    tracer = Tracer(sim)

    def proc():
        buf = yield from pool.acquire(1024, label="mine")
        with tracer.begin("compute", "w1", rank=0, track="main"):
            buf.write(np.arange(8, dtype=np.float32))
        with tracer.begin("compute", "w2", rank=0, track="main"):
            buf.write(np.arange(8, dtype=np.float32))
        yield from pool.release(buf)

    sim.run_process(proc())
    checker = HBChecker(tracer, access_log=sim.asan.access_log)
    assert checker.check_races() == []
    checker.assert_race_free()  # must not raise


def test_no_access_log_means_no_race_findings():
    checker = HBChecker(fixtures.message_race_records())
    assert checker.check_races() == []


# -- message races -----------------------------------------------------------

def test_message_race_fixture_detected():
    (v,) = HBChecker(fixtures.message_race_records()).check_message_races()
    assert v.check == "message-race"
    assert set(v.span_ids) == {1, 2, 3}
    assert "timing-dependent" in v.message


def test_same_sender_rival_is_exempt():
    recs = [r for r in fixtures.message_race_records()]
    # rival now comes from the same rank as the matched send: MPI
    # non-overtaking orders them, no race
    recs[1] = _rec(0.0, 1e-6, "pipeline", "rts",
                   {"seq": 12, "dst": 1, "tag": 5}, rank=0, span_id=2)
    assert HBChecker(recs).check_message_races() == []


def test_tag_incompatible_rival_is_exempt():
    recs = [
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 11, "dst": 1, "tag": 5}, rank=0, span_id=1),
        _rec(0.0, 1e-6, "pipeline", "rts",
             {"seq": 12, "dst": 1, "tag": 6}, rank=2, span_id=2),
        # the receive posted tag 5 explicitly: the tag-6 send from rank
        # 2 never qualified
        _rec(2e-6, 2e-6, "matching", "wildcard_match",
             {"seq": 11, "src": 0, "tag": 5, "posted_tag": 5},
             rank=1, span_id=3),
    ]
    assert HBChecker(recs).check_message_races() == []


def test_eager_match_without_rts_is_skipped():
    recs = [
        _rec(2e-6, 2e-6, "matching", "wildcard_match",
             {"seq": 11, "src": 0, "tag": 5, "posted_tag": -1},
             rank=1, span_id=1),
    ]
    assert HBChecker(recs).check_message_races() == []


# -- deadlock cycles ---------------------------------------------------------

def test_deadlock_fixture_explained_as_cycle():
    (v,) = HBChecker(fixtures.deadlock_records()).check_deadlock()
    assert v.check == "deadlock-cycle"
    assert "[0 -> 1 -> 2 -> 0]" in v.message
    assert len(v.span_ids) == 3


def test_completed_handshake_is_not_a_deadlock():
    seq = {"seq": 1}
    recs = [
        _rec(0.0, 1e-6, "pipeline", "rts", dict(seq, dst=1, tag=0),
             rank=0, span_id=1),
        _rec(1e-6, 2e-6, "pipeline", "cts", dict(seq, dst=0), rank=1,
             span_id=2),
        _rec(2e-6, 3e-6, "pipeline", "receiver_complete", dict(seq),
             rank=1, span_id=3),
    ]
    assert HBChecker(recs).check_deadlock() == []


def test_two_rank_mutual_rts_cycle():
    recs = [
        _rec(0.0, 1e-6, "pipeline", "rts", {"seq": 1, "dst": 1, "tag": 0},
             rank=0, span_id=1),
        _rec(0.0, 1e-6, "pipeline", "rts", {"seq": 2, "dst": 0, "tag": 0},
             rank=1, span_id=2),
    ]
    (v,) = HBChecker(recs).check_deadlock()
    assert "[0 -> 1 -> 0]" in v.message


# -- typestate ---------------------------------------------------------------

def test_wire_typestate_fixture_detected():
    vs = HBChecker(fixtures.bad_wire_records()).check_typestate()
    assert [v.check for v in vs] == ["wire-typestate"] * 2


def test_clean_wire_lifecycle_passes():
    recs = [
        _rec(0.0, 1e-6, "pipeline", "pack_wire",
             {"origin_seq": 40, "nbytes": 64}, span_id=1),
        _rec(2e-6, 3e-6, "pipeline", "unpack_wire",
             {"origin_seq": 40, "nbytes": 64}, rank=1, span_id=2),
    ]
    assert HBChecker(recs).check_typestate() == []


def test_unpack_before_seal_detected():
    recs = [
        _rec(1e-6, 3e-6, "pipeline", "pack_wire",
             {"origin_seq": 40, "nbytes": 64}, span_id=1),
        _rec(2e-6, 4e-6, "pipeline", "unpack_wire",
             {"origin_seq": 40, "nbytes": 64}, rank=1, span_id=2),
    ]
    (v,) = HBChecker(recs).check_typestate()
    assert v.check == "wire-typestate"
    assert "before its pack" in v.message


def test_double_mint_detected():
    recs = [
        _rec(0.0, 1e-6, "pipeline", "pack_wire",
             {"origin_seq": 40, "nbytes": 64}, span_id=1),
        _rec(0.0, 1e-6, "pipeline", "reduce_wire",
             {"origin_seq": 40, "nbytes": 64}, rank=1, span_id=2),
    ]
    (v,) = HBChecker(recs).check_typestate()
    assert "minted 2 times" in v.message


# -- end to end --------------------------------------------------------------

def test_clean_pt2pt_smoke_has_no_findings():
    from repro.check.cli import _smoke_run

    res = _smoke_run("mpc-opt", asan="record")
    checker = HBChecker.from_result(res)
    assert checker.access_log  # the sanitizer really recorded accesses
    assert checker.check_all() == []


def test_retransmitted_message_keeps_its_first_send_recv_edge():
    """Each receiver_complete follows the wire transfer of its own
    attempt: the first attempt's send->recv edge must not be drawn from
    the retransmission (where the time guard drops it)."""
    from repro.core import CompressionConfig
    from repro.faults import FaultPlan
    from repro.mpi.cluster import Cluster
    from repro.omb.payload import make_payload

    data = make_payload("omb", 1 << 20, seed=1)

    def rank_fn(comm):
        for tag in range(6):
            if comm.rank == 0:
                yield from comm.send(data, dest=1, tag=tag)
            else:
                yield from comm.recv(source=0, tag=tag)

    res = Cluster("longhorn", 2, 1).run(
        rank_fn, config=CompressionConfig.mpc_opt(),
        faults=FaultPlan(seed=3, corrupt_rate=0.4))
    hb = HappensBefore(res.tracer)
    msg = hb.trace.messages[1]
    wires, completes = (msg.steps["wire_transfer"],
                        msg.steps["receiver_complete"])
    assert [r.meta.get("attempt") for r in wires] == [None, 1]
    assert [r.meta.get("attempt") for r in completes] == [None, 1]
    assert hb.hb_span(wires[0].span_id, completes[0].span_id)
    assert hb.hb_span(wires[0].span_id, completes[1].span_id)
    assert hb.hb_span(wires[1].span_id, completes[1].span_id)
    assert HBChecker(hb.trace).check_all() == []


def test_golden_traces_clean_and_identical_across_formats():
    by_json = HBChecker.from_trace_file(GOLDEN_JSON)
    by_rprt = HBChecker.from_trace_file(GOLDEN_RPRT)
    assert len(by_json.records) == len(by_rprt.records) > 0
    fj = [v.as_dict() for v in by_json.check_all()]
    fr = [v.as_dict() for v in by_rprt.check_all()]
    assert fj == fr == []


def test_selftest_pass_is_ok():
    from repro.check.cli import _pass_selftest

    result = _pass_selftest()
    assert result["ok"], result["lines"]
