"""Cross-cutting property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.sim import Simulator, Trace


# -- simulator determinism over random process graphs --------------------------

@settings(max_examples=20, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_sim_schedule_deterministic(delays, seed):
    def run_once():
        sim = Simulator()
        log = []

        def worker(sim, i, d):
            yield sim.timeout(d)
            log.append((i, sim.now))

        rng = np.random.default_rng(seed)
        order = rng.permutation(len(delays))
        for i in order:
            sim.process(worker(sim, int(i), delays[int(i)]))
        sim.run()
        return log

    assert run_once() == run_once()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                min_size=1, max_size=20))
def test_sim_clock_monotone(delays):
    sim = Simulator()
    stamps = []

    def worker(sim, d):
        yield sim.timeout(d)
        stamps.append(sim.now)

    for d in delays:
        sim.process(worker(sim, d))
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == pytest.approx(max(delays))


# -- transport invariants ----------------------------------------------------------

def _pt2pt(n, algo, seed):
    """``(data, result)`` of ``n`` seeded float32 values sent from rank 0
    to rank 1, MPC-compressed above 64 KiB or uncompressed."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.standard_normal(n)).astype(np.float32)
    cfg = (CompressionConfig.mpc_opt(threshold=64 * 1024)
           if algo == "mpc" else CompressionConfig.disabled())
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1)
            return None
        return (yield from comm.recv(0))

    return data, cluster.run(rank_fn, config=cfg)


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200_000),
    algo=st.sampled_from(["mpc", "none"]),
    seed=st.integers(min_value=0, max_value=99),
)
def test_pt2pt_delivery_bit_exact(n, algo, seed):
    """Whatever the size (eager/rendezvous/compressed), lossless
    transport must deliver bit-exact data."""
    data, res = _pt2pt(n, algo, seed)
    got = np.asarray(res.values[1])
    assert np.array_equal(got.view(np.uint32), data.view(np.uint32))


@settings(max_examples=6, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=6),
    root=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=1, max_value=5000),
)
def test_bcast_delivers_to_all(nprocs, root, n):
    root = root % nprocs
    payload = np.arange(n, dtype=np.float32)
    cluster = Cluster(machine_preset("frontera-liquid"),
                      nodes=max(1, -(-nprocs // 2)), gpus_per_node=2)

    def rank_fn(comm):
        data = payload if comm.rank == root else None
        out = yield from comm.bcast(data, root=root)
        return np.array_equal(np.asarray(out), payload)

    res = cluster.run(rank_fn, nprocs=nprocs)
    assert all(res.values)


@settings(max_examples=6, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_allreduce_agrees_with_numpy(nprocs, seed):
    rng = np.random.default_rng(seed)
    contributions = [rng.standard_normal(100).astype(np.float32)
                     for _ in range(nprocs)]
    expected = np.sum(contributions, axis=0)
    cluster = Cluster(machine_preset("lassen"),
                      nodes=max(1, -(-nprocs // 4)), gpus_per_node=4)

    def rank_fn(comm):
        out = yield from comm.allreduce(contributions[comm.rank])
        return out

    res = cluster.run(rank_fn, nprocs=nprocs)
    for out in res.values:
        # allreduce algorithms may differ in summation order per rank
        assert np.allclose(np.asarray(out), expected, atol=1e-3)


# -- observability invariants --------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200_000),
    algo=st.sampled_from(["mpc", "none"]),
    seed=st.integers(min_value=0, max_value=99),
)
def test_trace_spans_well_formed(n, algo, seed):
    """Whatever the protocol path taken, spans never have negative
    duration, children lie within their parents, and merged occupancy
    never exceeds the raw per-category sum."""
    tracer = _pt2pt(n, algo, seed)[1].tracer
    by_id = Trace.of(tracer).by_id
    eps = 1e-12
    for rec in tracer.records:
        assert rec.duration >= 0
        if rec.parent_id is not None and rec.parent_id in by_id:
            parent = by_id[rec.parent_id]
            assert parent.t_start - eps <= rec.t_start
            assert rec.t_end <= parent.t_end + eps
    for cat in sorted(tracer.breakdown()):
        assert tracer.busy(cat) <= tracer.breakdown().get(cat, 0.0) + eps


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200_000),
    algo=st.sampled_from(["mpc", "none"]),
    seed=st.integers(min_value=0, max_value=99),
)
def test_metrics_agree_with_spans(n, algo, seed):
    """Counters and spans are updated from the same measurements, so
    each must be derivable from the other."""
    tracer = _pt2pt(n, algo, seed)[1].tracer
    m = tracer.metrics

    wire = [r for r in tracer.records if (r.track or "").startswith("link:")]
    span_bytes = sum(int(r.meta["nbytes"]) * len(r.meta["links"]) for r in wire)
    span_hops = sum(len(r.meta["links"]) for r in wire)
    assert m.counter_total("wire.bytes") == span_bytes
    assert m.counter_total("wire.transfers") == span_hops

    pool_hits = sum(1 for r in tracer.records
                    if r.category == "pool" and r.label == "hit")
    assert m.counter_total("pool.hit") == pool_hits

    # Every rendezvous send records exactly one sender_prepare step;
    # eager/self sends never do (pipelined configs may retry, but these
    # configs are non-pipelined).
    prepares = sum(1 for r in tracer.records
                   if r.category == "pipeline" and r.label == "sender_prepare")
    assert prepares == (m.counter("mpi.sends", protocol="rndv")
                        + m.counter("mpi.sends", protocol="rndv_pipelined"))


# -- latency sanity properties ------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(nbytes=st.integers(min_value=1, max_value=1 << 22))
def test_latency_bounded_below_by_wire_model(nbytes):
    """No message can beat the physics: latency >= size / bandwidth."""
    nbytes = (nbytes // 4) * 4 or 4
    from repro.omb import osu_latency

    row = osu_latency("longhorn", sizes=[nbytes], warmup=0)[0]
    wire_floor = nbytes / 12.5e9
    assert row.latency >= wire_floor * 0.999
