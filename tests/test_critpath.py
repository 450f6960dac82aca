"""Critical-path attribution: the tiling invariant, Fig 10-style
percentages from the span tree alone, and the explain report.

The load-bearing invariant (ISSUE 3): on a 2-rank rendezvous send the
critical-path segment durations sum exactly to the end-to-end simulated
latency, every segment maps to a real span in the trace, and the
segments tile the makespan with no gaps or overlaps.
"""

import math

import pytest

from repro.analysis import CritPathAnalyzer
from repro.analysis.critpath import ATTRIBUTION_BUCKETS
from repro.core import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload


def _one_way(comm, data):
    """Rank 0 sends ``data`` to rank 1, which returns its byte count."""
    if comm.rank == 0:
        yield from comm.send(data, 1, tag=5)
        return None
    got = yield from comm.recv(0, tag=5)
    return got.nbytes


def run_pt2pt(config=None, nbytes=1 << 20, payload="omb"):
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload(payload, nbytes, seed=3)

    return cluster.run(_one_way, args=(data,),
                       config=config or CompressionConfig.mpc_opt())


@pytest.fixture(scope="module")
def mpc_message():
    res = run_pt2pt()
    msgs = CritPathAnalyzer(res.tracer).messages()
    assert len(msgs) == 1
    return res, msgs[0]


def test_segments_sum_to_latency(mpc_message):
    _, msg = mpc_message
    assert msg.latency > 0
    total = sum(s.duration for s in msg.segments)
    assert math.isclose(total, msg.latency, rel_tol=1e-12, abs_tol=1e-15)
    # service + wait is the same partition, differently keyed
    assert math.isclose(msg.service_time() + msg.wait_time(), msg.latency,
                        rel_tol=1e-12, abs_tol=1e-15)


def test_segments_tile_without_gaps(mpc_message):
    _, msg = mpc_message
    cur = msg.t_start
    for seg in msg.segments:
        assert seg.t_start == cur  # contiguous, in order
        assert seg.t_end > seg.t_start
        cur = seg.t_end
    assert cur == msg.t_end


def test_every_segment_maps_to_real_span(mpc_message):
    res, msg = mpc_message
    real = {id(r) for r in res.tracer.records}
    by_id = {r.span_id: r for r in res.tracer.records}
    for seg in msg.segments:
        assert id(seg.span) in real
        assert by_id[seg.span.span_id] is seg.span
        if seg.kind == "service":
            # a service slice lies within its span's interval
            assert seg.t_start >= seg.span.t_start - 1e-15
            assert seg.t_end <= seg.span.t_end + 1e-15


def test_message_endpoints_and_sizes(mpc_message):
    _, msg = mpc_message
    assert (msg.src, msg.dst) == (0, 1)
    assert msg.nbytes == 1 << 20
    # mpc-opt on the omb payload compresses heavily
    assert msg.wire_nbytes is not None and msg.wire_nbytes < msg.nbytes // 4


def test_fig10_attribution_from_span_tree(mpc_message):
    """mpc-opt pt2pt: kernels dominate, wire is small, everything sums
    to 100% — the Fig 10 shape recovered from the trace alone."""
    _, msg = mpc_message
    attr = msg.attribution()
    assert set(attr) == {"compression", "communication", "decompression",
                         "other"}
    assert math.isclose(sum(attr.values()), 100.0, rel_tol=1e-9)
    assert all(v >= 0 for v in attr.values())
    # omb compresses ~30x, so kernel time dominates the wire leg
    assert attr["compression"] > attr["communication"]
    assert attr["decompression"] > attr["communication"]
    assert attr["compression"] + attr["decompression"] > 50


def test_baseline_attribution_is_communication_heavy():
    res = run_pt2pt(config=CompressionConfig.disabled())
    msgs = CritPathAnalyzer(res.tracer).messages()
    attr = msgs[0].attribution()
    assert attr["compression"] == 0.0
    assert attr["decompression"] == 0.0
    assert attr["communication"] > 50


def test_by_resource_lanes(mpc_message):
    _, msg = mpc_message
    lanes = msg.by_resource()
    assert any(lane.startswith("stream") for lane in lanes)
    assert any(lane.startswith("link:") for lane in lanes)
    total = sum(v["service"] + v["wait"] for v in lanes.values())
    assert math.isclose(total, msg.latency, rel_tol=1e-12)


def test_by_step_covers_pipeline(mpc_message):
    _, msg = mpc_message
    steps = msg.by_step()
    for expected in ("sender_prepare", "wire_transfer", "receiver_complete"):
        assert expected in steps and steps[expected] > 0
    assert math.isclose(sum(steps.values()), msg.latency, rel_tol=1e-12)


def test_aggregate_attribution_weighted(mpc_message):
    res, msg = mpc_message
    agg = CritPathAnalyzer(res.tracer).aggregate_attribution()
    # single message: aggregate == the message's own attribution
    for k, v in msg.attribution().items():
        assert math.isclose(agg[k], v, rel_tol=1e-12)


def test_explain_report(mpc_message):
    res, msg = mpc_message
    text = CritPathAnalyzer(res.tracer).explain(n=3)
    assert "seq 1: rank 0 -> 1" in text
    assert "critical-path attribution:" in text
    assert "compression_kernel" in text
    assert "wire_transfer" in text


def test_explain_empty_for_eager_sends():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload("omb", 1 << 10)  # far below the eager threshold

    res = cluster.run(_one_way, args=(data,), config=CompressionConfig.disabled())
    an = CritPathAnalyzer(res.tracer)
    assert an.messages() == []
    assert "no rendezvous messages" in an.explain()


def test_collectives_paths():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=2)
    data = make_payload("omb", 512 * 1024, seed=3)

    def rank_fn(comm):
        out = yield from comm.allgather(data)
        return len(out)

    res = cluster.run(rank_fn, config=CompressionConfig.mpc_opt())
    paths = CritPathAnalyzer(res.tracer).collectives()
    assert len(paths) == 4  # one per rank
    for p in paths:
        assert p.label == "allgather"
        total = sum(s.duration for s in p.segments)
        assert math.isclose(total, p.latency, rel_tol=1e-12)


def test_determinism_across_runs():
    def fingerprint():
        res = run_pt2pt()
        msg = CritPathAnalyzer(res.tracer).messages()[0]
        return (msg.latency, msg.attribution(),
                tuple((s.t_start, s.t_end, s.kind, s.span.span_id, s.step)
                      for s in msg.segments))

    assert fingerprint() == fingerprint()


def test_bucket_map_is_total():
    # every bucket value is one of the four report buckets
    assert set(ATTRIBUTION_BUCKETS.values()) <= {
        "compression", "communication", "decompression", "other"}
