"""Trace sanitizer (repro.check.sanitize) tests."""

from pathlib import Path

import pytest

from repro.analysis.bench import named_config
from repro.analysis.export import write_chrome_trace
from repro.check.fixtures import (acausal_records, bad_collective_records,
                                  early_retry_records, overlap_records)
from repro.check.sanitize import TraceSanitizer, TraceViolation
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload
from repro.sim.trace import Trace, TraceRecord

GOLDEN = Path(__file__).parent / "data" / "golden_trace_mpc.json"


def _rec(t0, t1, category, label, meta=None, rank=0, track="main",
         span_id=1, parent_id=None):
    return TraceRecord(t0, t1, category, label, meta or {}, rank, track,
                       span_id, parent_id)


def _pingpong_result(config_name, nbytes=1 << 20):
    data = make_payload("omb", nbytes, seed=1)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, dest=1, tag=1)
            got = yield from comm.recv(source=1, tag=2)
        else:
            got = yield from comm.recv(source=0, tag=1)
            yield from comm.send(got, dest=0, tag=2)
        return got.nbytes

    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    return cluster.run(rank_fn, config=named_config(config_name), args=())


# -- real traces are clean --------------------------------------------------

@pytest.mark.parametrize("config_name",
                         ["baseline", "mpc-opt", "zfp8", "zfp8-pipe"])
def test_real_traces_pass_all_checks(config_name):
    res = _pingpong_result(config_name)
    assert TraceSanitizer(res.tracer).check_all() == []


def test_chrome_roundtrip_is_clean(tmp_path):
    res = _pingpong_result("zfp8-pipe")
    path = tmp_path / "t.json"
    write_chrome_trace(res.tracer, path, elapsed=res.elapsed)
    ts = TraceSanitizer.from_trace_file(path)
    assert len(ts.records) == len(res.tracer.records)
    assert ts.check_all() == []


def test_golden_trace_is_clean():
    ts = TraceSanitizer.from_trace_file(GOLDEN)
    assert ts.records, "golden trace should contain spans"
    assert ts.check_all() == []


# -- serial-lane race detection ---------------------------------------------

def test_overlap_on_stream_lane_detected():
    vs = TraceSanitizer(overlap_records()).check_serial_lanes()
    assert len(vs) == 1
    v = vs[0]
    assert v.check == "serial-lane"
    assert v.span_ids == (1, 2)
    assert "stream0" in v.message


def test_overlap_on_link_lane_detected():
    recs = [
        _rec(0.0, 2e-6, "network", "data", track="link:ib0", span_id=1),
        _rec(1e-6, 3e-6, "network", "data", track="link:ib0", span_id=2),
    ]
    assert len(TraceSanitizer(recs).check_serial_lanes()) == 1


def test_main_lane_overlap_is_allowed():
    # Concurrent isend/irecv legitimately overlap on "main".
    recs = [
        _rec(0.0, 2e-6, "pipeline", "wire_transfer", span_id=1),
        _rec(1e-6, 3e-6, "pipeline", "wire_transfer", span_id=2),
    ]
    assert TraceSanitizer(recs).check_serial_lanes() == []


def test_back_to_back_spans_are_not_a_race():
    recs = [
        _rec(0.0, 1e-6, "compression_kernel", "a", track="stream0", span_id=1),
        _rec(1e-6, 2e-6, "compression_kernel", "b", track="stream0", span_id=2),
    ]
    assert TraceSanitizer(recs).check_serial_lanes() == []


def test_same_stream_name_on_other_rank_is_another_lane():
    recs = [
        _rec(0.0, 2e-6, "k", "a", rank=0, track="stream0", span_id=1),
        _rec(1e-6, 3e-6, "k", "b", rank=1, track="stream0", span_id=2),
    ]
    assert TraceSanitizer(recs).check_serial_lanes() == []


# -- containment ------------------------------------------------------------

def test_child_starting_before_parent_detected():
    recs = [
        _rec(1e-6, 5e-6, "pipeline", "sender_prepare", span_id=1),
        _rec(0.5e-6, 2e-6, "compression_kernel", "k", track="gpu",
             span_id=2, parent_id=1),
    ]
    vs = TraceSanitizer(recs).check_containment()
    assert [v.check for v in vs] == ["containment"]
    assert vs[0].span_ids == (2, 1)


def test_dangling_parent_detected():
    recs = [_rec(0.0, 1e-6, "pool", "hit", span_id=2, parent_id=77)]
    vs = TraceSanitizer(recs).check_containment()
    assert len(vs) == 1
    assert "missing parent 77" in vs[0].message


def test_child_outliving_inherited_parent_is_allowed():
    # Part senders spawned under sender_prepare outlive it by design.
    recs = [
        _rec(0.0, 1e-6, "pipeline", "sender_prepare", span_id=1),
        _rec(0.5e-6, 9e-6, "pipeline", "wire_transfer", span_id=2, parent_id=1),
    ]
    assert TraceSanitizer(recs).check_containment() == []


# -- causality --------------------------------------------------------------

def test_acausal_fixture_detected():
    vs = TraceSanitizer(acausal_records()).check_causality()
    messages = " | ".join(v.message for v in vs)
    assert "cts sent before rts" in messages
    assert "wire_transfer started before cts completed" in messages


def test_receiver_complete_before_wire_detected():
    recs = [
        _rec(0e-6, 1e-6, "pipeline", "rts", {"seq": 2}, span_id=1),
        _rec(1e-6, 2e-6, "pipeline", "cts", {"seq": 2}, rank=1, span_id=2),
        _rec(2e-6, 6e-6, "pipeline", "wire_transfer",
             {"seq": 2, "nbytes": 8}, span_id=3),
        _rec(3e-6, 4e-6, "pipeline", "receiver_complete", {"seq": 2},
             rank=1, span_id=4),
    ]
    vs = TraceSanitizer(recs).check_causality()
    assert len(vs) == 1
    assert "receiver_complete" in vs[0].message


def test_retried_completion_is_checked_against_its_own_attempt():
    # the retry's receiver_complete starts after the first transfer
    # landed but before the retransmission did
    (v,) = TraceSanitizer(early_retry_records()).check_causality()
    assert "receiver_complete began before its wire transfer landed" \
        in v.message
    assert v.span_ids == (6, 5)


def test_part_matched_wires():
    # receiver_complete of part 1 may start before part 0's (longer)
    # wire finishes; it only has to follow its *own* part.
    recs = [
        _rec(0.0, 1e-6, "pipeline", "cts", {"seq": 3}, rank=1, span_id=1),
        _rec(1e-6, 9e-6, "pipeline", "wire_transfer",
             {"seq": 3, "part": 0, "nbytes": 8}, span_id=2),
        _rec(1e-6, 2e-6, "pipeline", "wire_transfer",
             {"seq": 3, "part": 1, "nbytes": 8}, span_id=3),
        _rec(2e-6, 3e-6, "pipeline", "receiver_complete",
             {"seq": 3, "part": 1}, rank=1, span_id=4),
    ]
    assert TraceSanitizer(recs).check_causality() == []


# -- tiling -----------------------------------------------------------------

def test_tiling_holds_on_real_messages():
    res = _pingpong_result("mpc-opt")
    ts = TraceSanitizer(res.tracer)
    assert ts.trace.messages, "expected rendezvous messages"
    assert ts.check_tiling() == []


# -- collective causality ---------------------------------------------------

def _collective_result(op, config_name="mpc-opt", faults=None):
    data = make_payload("dataset:msg_sppm", 1 << 20, seed=1)

    def rank_fn(comm):
        if op == "bcast":
            out = yield from comm.bcast(data if comm.rank == 0 else None,
                                        root=0)
        elif op == "allgather":
            out = yield from comm.allgather(data)
            return len(out)
        else:
            out = yield from comm.allreduce(data, algorithm=op)
        return out.nbytes

    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=2)
    return cluster.run(rank_fn, config=named_config(config_name), args=(),
                       faults=faults)


@pytest.mark.parametrize("op", ["bcast", "allgather", "ring",
                                "recursive_doubling"])
def test_collective_traces_pass_all_checks(op):
    res = _collective_result(op)
    assert TraceSanitizer(res.tracer).check_all() == []


def test_faulty_collective_trace_is_clean():
    """Retransmitted relay hops (attempt-stamped spans outliving the
    collective span) must not trip the containment rule."""
    from repro.faults import FaultPlan

    res = _collective_result(
        "bcast", faults=FaultPlan(seed=3, corrupt_rate=0.25, drop_rate=0.1))
    assert res.tracer.metrics.counter_total("resilience.retransmit") > 0
    assert TraceSanitizer(res.tracer).check_all() == []


def test_bad_collective_fixture_detected():
    viols = TraceSanitizer(bad_collective_records()).check_collectives()
    msgs = " | ".join(v.message for v in viols)
    assert len(viols) == 3
    assert "dropped the originating seq" in msgs
    assert "outside every collective span" in msgs
    assert "no pack_wire/reduce_wire span minted it" in msgs
    assert all(v.check == "collective" for v in viols)


def test_collective_check_ignores_pt2pt_traces():
    res = _pingpong_result("mpc-opt")
    assert TraceSanitizer(res.tracer).check_collectives() == []


def test_violation_shapes():
    v = TraceViolation("serial-lane", "boom", span_ids=(1, 2), t=0.5)
    assert "boom" in v.describe()
    assert v.as_dict()["span_ids"] == [1, 2]


def test_lanes_and_by_seq_accessors():
    trace = Trace.of(_pingpong_result("mpc-opt").tracer)
    assert any(track == "main" for _, track in trace.lanes)
    assert any(track.startswith("link:") for _, track in trace.lanes)
    assert trace.messages
    for msg in trace.messages.values():
        assert {r.category for r in msg.spans} == {"pipeline"}
