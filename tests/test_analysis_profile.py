"""INAM-style CommProfile tests."""

import numpy as np
import pytest

from repro.analysis import CommProfile
from repro.core import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.utils.units import MiB


def run_traffic(config=None, nodes=2, ppn=2):
    cluster = Cluster(machine_preset("longhorn"), nodes=nodes, gpus_per_node=ppn)
    data = np.cumsum(np.ones((2 * MiB) // 4, dtype=np.float32))

    def rank_fn(comm):
        out = yield from comm.allgather(data)
        return len(out)

    return cluster.run(rank_fn, config=config or CompressionConfig.disabled())


def test_profile_totals_match_tracer():
    res = run_traffic()
    prof = CommProfile.from_result(res)
    assert prof.elapsed == res.elapsed
    assert prof.category_time["network"] == pytest.approx(
        res.tracer.breakdown().get("network", 0.0))
    assert prof.n_messages > 0
    assert prof.total_wire_bytes > 0


def test_profile_links_and_busiest():
    res = run_traffic()
    prof = CommProfile.from_result(res)
    assert len(prof.links) >= 2  # uplinks/downlinks + NVLink pairs
    busiest = prof.busiest_link
    assert busiest is not None
    assert 0 < busiest.utilization(prof.elapsed) <= 1.0


def test_profile_histogram_buckets():
    res = run_traffic()
    prof = CommProfile.from_result(res)
    assert sum(prof.size_histogram.values()) == prof.n_messages
    # 2 MiB payloads -> a bucket at or near 2^21
    assert any(b >= 20 for b in prof.size_histogram)


def test_profile_compression_shrinks_wire_bytes():
    base = CommProfile.from_result(run_traffic())
    comp = CommProfile.from_result(run_traffic(CompressionConfig.mpc_opt()))
    assert comp.total_wire_bytes < base.total_wire_bytes / 2


def test_profile_report_renders():
    prof = CommProfile.from_result(run_traffic(CompressionConfig.mpc_opt()))
    text = prof.report()
    assert "time by category" in text
    assert "link activity" in text
    assert "wire-size histogram" in text
    assert "compression_kernel" in text


def test_profile_all_link_utilizations_bounded():
    """Per-link busy time can never exceed elapsed — in particular the
    multi-hop cut-through spans must be attributed per constituent
    link, not double-counted onto one."""
    for cfg in (None, CompressionConfig.mpc_opt()):
        prof = CommProfile.from_result(run_traffic(cfg))
        for st in prof.links.values():
            assert 0.0 <= st.utilization(prof.elapsed) <= 1.0


def test_profile_bytes_match_trace():
    res = run_traffic(CompressionConfig.mpc_opt())
    prof = CommProfile.from_result(res)
    wire = [r for r in res.tracer.records
            if (r.track or "").startswith("link:")]
    # total_wire_bytes counts each wire span once ...
    assert prof.total_wire_bytes == sum(int(r.meta["nbytes"]) for r in wire)
    assert prof.n_messages == len(wire)
    # ... per-link bytes_moved attributes a span to each link it holds.
    per_link = sum(st.bytes_moved for st in prof.links.values())
    assert per_link == sum(
        int(r.meta["nbytes"]) * len(r.meta["links"]) for r in wire)
    assert per_link == res.tracer.metrics.counter_total("wire.bytes")


def test_profile_histogram_consistent_with_links():
    prof = CommProfile.from_result(run_traffic())
    assert sum(prof.size_histogram.values()) == prof.n_messages
    assert sum(st.transfers for st in prof.links.values()) >= prof.n_messages
    assert all(n > 0 for n in prof.size_histogram.values())


def test_profile_rank_pipeline_time():
    res = run_traffic(CompressionConfig.mpc_opt())
    prof = CommProfile.from_result(res)
    assert prof.rank_pipeline_time
    assert set(prof.rank_pipeline_time) <= set(range(4))
    for t in prof.rank_pipeline_time.values():
        assert t > 0
    assert "pipeline time by rank" in prof.report()


def test_profile_from_empty_tracer():
    from repro.sim import Tracer

    prof = CommProfile.from_tracer(Tracer(), elapsed=0.0)
    assert prof.n_messages == 0
    assert prof.total_wire_bytes == 0
    assert prof.links == {} and prof.size_histogram == {}
    assert prof.busiest_link is None
    assert "0 wire transfers" in prof.report()  # renders without dividing by 0


def test_profile_empty_run():
    cluster = Cluster(machine_preset("ri2"), nodes=1, gpus_per_node=1)

    def rank_fn(comm):
        yield comm.sim.timeout(1e-6)

    res = cluster.run(rank_fn)
    prof = CommProfile.from_result(res)
    assert prof.n_messages == 0
    assert prof.busiest_link is None
    assert "0 wire transfers" in prof.report()


def test_profile_codec_cache_counters():
    from repro.compression.cache import GLOBAL_CODEC_CACHE

    GLOBAL_CODEC_CACHE.clear()
    res = run_traffic(CompressionConfig.mpc_opt())
    # The run's delta is recorded on the result and flows into the
    # profile; a 4-rank allgather re-compresses the same buffers, so a
    # fresh cache must see both misses and hits.
    assert res.codec_cache["misses"] > 0
    assert res.codec_cache["hits"] > 0
    assert res.codec_cache["bytes_saved"] > 0
    prof = CommProfile.from_result(res)
    assert prof.codec_cache == res.codec_cache
    assert prof.as_dict()["codec_cache"] == res.codec_cache
    assert "codec cache (host-side):" in prof.report()
    # A second identical run hits where the first missed: the delta is
    # per-run, not cumulative.
    res2 = run_traffic(CompressionConfig.mpc_opt())
    assert res2.codec_cache["hits"] >= res.codec_cache["hits"]
    assert res2.codec_cache["misses"] == 0


def test_profile_codec_cache_absent_without_compression():
    prof = CommProfile.from_result(run_traffic())
    # Disabled compression never touches the codec cache.
    assert prof.codec_cache["hits"] == 0
    assert prof.codec_cache["misses"] == 0
