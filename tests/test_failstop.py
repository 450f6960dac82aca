"""Fail-stop rank failures: detection, ULFM-style recovery, C/R.

Covers the whole tentpole stack: RankFailure spec validation, the
zero-failure trace-identity invariant, peer-death detection in both
point-to-point and collective waits, communicator revocation + shrink
with deterministic agreement, application checkpoint/restart, the
chaos harness's bit-exact shrunk-reference comparison, and the
liveness trace-sanitizer pass.
"""

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.errors import (
    CollectiveAbortedError,
    ConfigError,
    MpiError,
    RankFailedError,
)
from repro.faults import FaultPlan
from repro.faults.chaos import run_chaos, run_chaos_sweep
from repro.faults.plan import RankFailure
from repro.mpi.cluster import Cluster
from repro.mpi.failstop import KilledRank
from repro.network.presets import machine_preset

from tests import pins

MPC = CompressionConfig.mpc_opt()
DIS = CompressionConfig.disabled()


def _cluster(nodes=2, ppn=2):
    return Cluster(machine_preset("longhorn"), nodes=nodes, gpus_per_node=ppn)


def _kill(rank, at=None, sends=None):
    return FaultPlan(seed=1, rank_failures=(
        RankFailure(rank=rank, at_time=at, after_sends=sends),))


# ---------------------------------------------------------------------------
# spec validation + describe (satellite: FaultPlan rank-failure fields)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(rank=-1, at_time=1.0),
    dict(rank=0),                                  # no trigger at all
    dict(rank=0, at_time=1.0, after_sends=3),      # both triggers
    dict(rank=0, at_time=-1.0),
    dict(rank=0, at_time=float("inf")),
    dict(rank=0, after_sends=0),
    dict(rank=0, at_time=1.0, incarnation=-1),
])
def test_rank_failure_validation(kwargs):
    with pytest.raises(ConfigError):
        RankFailure(**kwargs)


def test_rank_failure_plan_predicates_and_describe():
    plan = _kill(2, at=1e-4)
    assert plan.has_rank_failures and not plan.is_zero
    assert "kill(rank=2, at_time=0.0001)" in plan.describe()
    sends = _kill(1, sends=5)
    assert "after_sends=5" in sends.describe()
    empty = FaultPlan(seed=1, rank_failures=())
    assert not empty.has_rank_failures and empty.is_zero


def test_duplicate_rank_failures_rejected():
    with pytest.raises(ConfigError):
        FaultPlan(rank_failures=(RankFailure(rank=1, at_time=1e-4),
                                 RankFailure(rank=1, after_sends=2)))


# ---------------------------------------------------------------------------
# zero-failure invariant: rank_failures=() perturbs nothing
# ---------------------------------------------------------------------------

def test_zero_rank_failures_trace_identical():
    def rank_fn(comm):
        data = np.full(1 << 14, float(comm.rank + 1), dtype=np.float32)
        out = yield from comm.allreduce(data)
        return float(out[0])

    base, with_field = (
        pins.run(_cluster(), rank_fn, config=MPC, faults=plan)
        for plan in (FaultPlan(seed=1), FaultPlan(seed=1, rank_failures=())))
    assert pins.digests(base) == pins.digests(with_field)
    assert with_field.out.killed == ()


# ---------------------------------------------------------------------------
# detection: waits against a dead peer raise RankFailedError
# ---------------------------------------------------------------------------

def test_p2p_recv_from_dead_rank_raises_with_context():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            data = np.arange(1 << 16, dtype=np.float32)
            yield from comm.send(data, 1, tag=0)   # completes pre-kill
            got = yield from comm.recv(1, tag=1)   # rank 1 dies first
            return got
        got = yield from comm.recv(0, tag=0)
        yield comm.sim.timeout(1.0)                # killed long before
        yield from comm.send(got, 0, tag=1)
        return None

    with pytest.raises(RankFailedError) as exc:
        cluster.run(rank_fn, config=MPC, faults=_kill(1, at=2e-4))
    err = exc.value
    assert err.failed_rank == 1
    assert err.incarnation == 0
    # the sender delivered before dying, so rank 0 heard from it
    assert err.last_heard is not None
    assert "last heard" in str(err) or "last heard" in err.diagnostic


def test_send_count_bomb_kills_on_nth_send():
    cluster = _cluster()

    def rank_fn(comm):
        data = np.full(1 << 12, 1.0, dtype=np.float32)
        for _ in range(8):
            data = yield from comm.allreduce(data)
        return float(data[0])

    res = None
    try:
        res = cluster.run(rank_fn, config=DIS, faults=_kill(2, sends=3))
    except CollectiveAbortedError:
        return  # a survivor surfaced the abort: detection worked
    assert res is not None
    assert [k.rank for k in res.killed] == [2]


# ---------------------------------------------------------------------------
# ULFM: revoke, agree, shrink
# ---------------------------------------------------------------------------

def test_collective_abort_then_shrink_recovers():
    cluster = _cluster()

    def rank_fn(comm):
        data = np.full(1 << 14, float(comm.grank + 1), dtype=np.float32)
        try:
            for _ in range(6):
                out = yield from comm.allreduce(data)
        except CollectiveAbortedError as exc:
            assert 2 in exc.failed_ranks
            # the communicator stays revoked: instant abort on re-entry
            with pytest.raises(CollectiveAbortedError):
                yield from comm.allreduce(data)
            small = yield from comm.shrink()
            assert small.size == 3
            assert small.group == (0, 1, 3)
            assert small.grank == comm.grank
            out = yield from small.allreduce(
                np.full(1 << 14, float(small.grank + 1), dtype=np.float32))
            return ("recovered", float(out[0]), small.rank)
        return ("clean", float(out[0]), comm.rank)

    res = cluster.run(rank_fn, config=DIS, faults=_kill(2, at=3e-5))
    survivors = [v for v in res.values if isinstance(v, tuple)]
    recovered = [v for v in survivors if v[0] == "recovered"]
    assert recovered, "no survivor went through shrink"
    # every recovered rank agreed on the same shrunk result: 1+2+4
    assert all(v[1] == 7.0 for v in recovered)
    # local ranks in the shrunk comm are dense over the survivors
    assert sorted(v[2] for v in recovered) == list(range(len(recovered)))
    assert [k.rank for k in res.killed] == [2]


def test_shrink_agreement_survives_leader_death():
    """Killing rank 0 — the agreement leader and bcast root — must
    still produce one consistent shrunk communicator on the others."""
    cluster = _cluster()

    def rank_fn(comm):
        data = np.full(1 << 13, 1.0, dtype=np.float32)
        try:
            for _ in range(6):
                data = yield from comm.bcast(
                    data if comm.rank == 0 else None, root=0)
        except CollectiveAbortedError:
            small = yield from comm.shrink()
            return tuple(small.group)
        return None

    res = cluster.run(rank_fn, config=DIS, faults=_kill(0, at=3e-5))
    groups = {v for v in res.values if isinstance(v, tuple)}
    assert groups == {(1, 2, 3)}


def test_subset_excludes_self_raises():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                comm.subset((1,))
        yield comm.sim.timeout(0.0)
        return None

    cluster.run(rank_fn, config=DIS)


# ---------------------------------------------------------------------------
# checkpoint / restart
# ---------------------------------------------------------------------------

def test_checkpoint_store_keeps_every_step():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        assert comm.should_checkpoint(1) and comm.should_checkpoint(3)
        assert not comm.should_checkpoint(0)
        for step in range(4):
            comm.checkpoint(step, np.full(4, float(step)))
        yield comm.sim.timeout(0.0)
        latest = comm.restore()
        specific = comm.restore(step=1)
        missing = comm.restore(step=9)
        return (latest[0], float(latest[1][0]), specific[0], missing)

    res = cluster.run(rank_fn, config=DIS, checkpoint_every=2)
    for latest_step, latest_val, specific_step, missing in res.values:
        assert (latest_step, latest_val) == (3, 3.0)
        assert specific_step == 1
        assert missing is None


def test_restore_empty_returns_none():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        yield comm.sim.timeout(0.0)
        assert not comm.should_checkpoint(5)   # checkpoint_every=0
        return comm.restore()

    res = cluster.run(rank_fn, config=DIS)
    assert res.values == [None, None]


# ---------------------------------------------------------------------------
# chaos harness: bit-exact recovery vs fault-free shrunk reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,spec", [
    ("allreduce", dict(rank=2, at_time=5e-5)),
    ("allreduce", dict(rank=1, after_sends=9)),
    ("bcast", dict(rank=0, at_time=6e-5)),        # kill the root/leader
    ("awp", dict(rank=3, at_time=8e-5)),          # kill a leaf
])
def test_chaos_failstop_bit_exact(workload, spec):
    plan = FaultPlan(seed=1, rank_failures=(RankFailure(**spec),))
    rep = run_chaos(workload=workload, plan=plan, sizes=(1 << 16,),
                    iterations=6, checkpoint_every=2)
    assert rep.ok, rep.summary()
    r = rep.results[0]
    assert r.killed == (spec["rank"],)
    assert r.recoveries >= 1
    assert r.mismatches == 0 and r.messages == 3
    assert "shrink+rollback" in rep.summary()


def test_chaos_failstop_rejects_pt2pt():
    with pytest.raises(ValueError):
        run_chaos(workload="pt2pt", plan=_kill(1, at=1e-4))


def test_chaos_seed_sweep_aggregates():
    plan = _kill(2, at=5e-5)
    sweep = run_chaos_sweep(n_seeds=2, base_seed=1, plan=plan,
                            workload="allreduce", sizes=(1 << 15,),
                            iterations=4, checkpoint_every=2)
    assert sweep.ok
    assert sweep.seeds == (1, 2)
    text = sweep.summary()
    assert "2 seeds" in text and "rank kills" in text
    assert "recovered bit-exactly" in text


# ---------------------------------------------------------------------------
# liveness sanitizer pass on kill traces
# ---------------------------------------------------------------------------

def test_kill_trace_passes_liveness_check():
    from repro.check.sanitize import TraceSanitizer

    cluster = _cluster()

    def rank_fn(comm):
        data = np.full(1 << 14, 1.0, dtype=np.float32)
        try:
            for _ in range(4):
                data = yield from comm.allreduce(data)
        except CollectiveAbortedError:
            small = yield from comm.shrink()
            data = yield from small.allreduce(data)
        return float(data[0])

    res = cluster.run(rank_fn, config=MPC, faults=_kill(2, at=3e-5))
    assert [k.rank for k in res.killed] == [2]
    violations = TraceSanitizer(res.tracer).check_liveness()
    assert violations == []
    # the kill itself is on the trace, pinned to the victim
    kills = [r for r in res.tracer.records if r.label == "rank_kill"]
    assert len(kills) == 1 and kills[0].rank == 2


def test_liveness_fixture_detected():
    from repro.check import fixtures
    from repro.check.sanitize import TraceSanitizer

    v = TraceSanitizer(fixtures.bad_liveness_records()).check_liveness()
    assert len(v) == 1
    assert v[0].check == "liveness" and "after its fail-stop kill" in v[0].message


def test_killed_sentinel_shape():
    k = KilledRank(3, 1, 2.5e-4)
    assert (k.rank, k.incarnation, k.killed_at) == (3, 1, 2.5e-4)
    assert "rank=3" in repr(k)


# ---------------------------------------------------------------------------
# kills during a ring allgather's store-only exchange steps
# ---------------------------------------------------------------------------

def _ring_allgather_rank(comm):
    data = np.full(256, float(comm.rank + 1), dtype=np.float32)
    try:
        out = yield from comm.allgather(data)
    except CollectiveAbortedError as exc:
        return exc.failed_ranks
    return [float(b[0]) for b in out]


#: (ranks, kill of rank 2) -> per-rank outcome (the aborting ranks'
#: ``failed_ranks``, the gathered values, or ``"killed"``), the kill's
#: time, sends, elapsed
_RING_KILLS = {
    (5, "after_sends=1"): (
        [(2,), (2,), "killed", (2,), (2,)], 0.0, 10, 0.001001),
    (5, "after_sends=2"): (
        [(2,), [1.0, 2.0, 3.0, 4.0, 5.0], "killed", (2,), (2,)],
        4.08704e-06, 14, 0.00100508704),
    (6, "after_sends=3"): (
        [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
         "killed", (2,), (2,), (2,)], 8.17408e-06, 24, 0.00100917408),
    (5, "at_time=6e-06"): (
        [(2,), [1.0, 2.0, 3.0, 4.0, 5.0], "killed", (2,), (2,)],
        6e-06, 14, 0.001006),
}


@pytest.mark.parametrize("size,kill", list(_RING_KILLS))
def test_kill_during_ring_allgather(size, kill):
    """A kill lands between store-only ring steps: ``after_sends`` on a
    send the ring issues after the first, ``at_time`` mid-ring.  The
    victim ends as a ``KilledRank`` in its own process and every
    survivor either completes or aborts over rank 2."""
    name, value = kill.split("=")
    spec = RankFailure(rank=2, **{name: (int(value) if name == "after_sends"
                                         else float(value))})
    res = Cluster(machine_preset("longhorn"), nodes=size,
                  gpus_per_node=1).run(_ring_allgather_rank, config=DIS,
                                       faults=FaultPlan(seed=1,
                                                        rank_failures=(spec,)))
    outcomes, killed_at, sends, elapsed = _RING_KILLS[(size, kill)]
    assert ["killed" if isinstance(v, KilledRank) else v
            for v in res.values] == outcomes
    assert [(k.rank, k.killed_at) for k in res.killed] == [(2, killed_at)]
    assert res.tracer.metrics.counter_total("mpi.sends") == sends
    assert res.elapsed == elapsed
