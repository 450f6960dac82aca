"""Fault-injection plane + resilient rendezvous.

Covers the chaos stack end to end: plan/spec validation, injector
determinism, per-fault-class recovery (bit-exact delivery plus the
spans/counters that make recovery auditable), retry exhaustion,
circuit-breaker mechanics, timeout/deadlock diagnostics, and the
CR >= 1 uncompressed-fallback property across every registered codec.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import CompressionConfig
from repro.errors import (
    BufferPoolExhaustedError,
    ConfigError,
    DeadlockError,
    IntegrityError,
    RendezvousTimeoutError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.chaos import run_chaos, run_chaos_sweep
from repro.gpu.pool import BufferPool, SizeClassBufferPool
from repro.gpu.spec import DeviceSpec
from repro.mpi.cluster import Cluster
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import Data
from repro.mpi.resilience import (BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_MAX,
                                   JITTER, CircuitBreaker, ResilienceConfig)
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload
from repro.sim import Simulator

MPC = CompressionConfig.mpc_opt()


def run_pt2pt(config=MPC, faults=None, resilience=None, payloads=None,
              nbytes=1 << 18, iterations=3, max_time=120.0):
    """Rank 0 streams distinct payloads to rank 1; returns
    (ClusterResult, sent payloads) — ``res.values[1]`` is the list of
    received arrays."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    if payloads is None:
        payloads = [make_payload("omb", nbytes, seed=i)
                    for i in range(iterations)]

    def rank_fn(comm):
        if comm.rank == 0:
            for i, p in enumerate(payloads):
                yield from comm.send(p, 1, tag=i)
            return None
        got = []
        for i in range(len(payloads)):
            r = yield from comm.recv(0, tag=i)
            got.append(r)
        return got

    res = cluster.run(rank_fn, config=config, faults=faults,
                      resilience=resilience, max_time=max_time)
    return res, payloads


def assert_bit_exact(res, payloads):
    received = res.values[1]
    assert len(received) == len(payloads)
    for sent, got in zip(payloads, received):
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert got.tobytes() == sent.tobytes()  # NaN-safe bit equality


# ---------------------------------------------------------------------------
# plan + spec validation (satellite: config validation -> ConfigError)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(corrupt_rate=1.5),
    dict(drop_rate=-0.1),
    dict(decompress_corrupt_rate=2.0),
    dict(oom_rate=1.5),
    dict(pool_fail_rate=-0.1),
    dict(compress_fail_rate=2.0),
    dict(active_after=-1.0),
    dict(active_after=2.0, active_until=1.0),
])
def test_fault_plan_validation(kwargs):
    with pytest.raises(ConfigError):
        FaultPlan(**kwargs)


def test_fault_plan_predicates():
    assert FaultPlan().is_zero
    assert not FaultPlan().can_lose_data
    plan = FaultPlan(seed=3, corrupt_rate=0.1)
    assert not plan.is_zero and not plan.can_lose_data
    assert FaultPlan(drop_rate=0.01).can_lose_data
    assert "corrupt_rate=0.1" in plan.describe()
    assert "seed=3" in plan.describe()


_SPEC_OK = dict(sm_count=80, mem_bandwidth=9e11, mem_capacity=16 << 30)


@pytest.mark.parametrize("kwargs", [
    dict(sm_count=0),
    dict(mem_bandwidth=0.0),
    dict(mem_capacity=-1),
    dict(memcpy_bandwidth=-2.0),
    dict(kernel_launch=-1e-6),
])
def test_device_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        DeviceSpec(name="bad", **{**_SPEC_OK, **kwargs})


def test_pool_validation():
    sim = Simulator()
    from repro.gpu.device import Device

    dev = Device(sim, DeviceSpec(name="ok", **_SPEC_OK), 0)
    with pytest.raises(ConfigError):
        BufferPool(dev, buffer_bytes=0)
    with pytest.raises(ConfigError):
        SizeClassBufferPool(dev, min_bytes=0)


def test_resilience_config_validation():
    with pytest.raises(ConfigError):
        ResilienceConfig(max_retries=-1)
    with pytest.raises(ConfigError):
        ResilienceConfig(handshake_timeout=0.0)
    # the CRC stamp is not a knob, nor is the backoff curve
    assert "integrity" not in ResilienceConfig.__dataclass_fields__
    assert list(ResilienceConfig.__dataclass_fields__) == [
        "max_retries", "handshake_timeout", "data_timeout",
        "breaker_threshold", "breaker_cooldown"]


def test_resilience_for_plan_arms_timeouts_only_on_loss():
    assert ResilienceConfig.for_plan(None).data_timeout is None
    assert ResilienceConfig.for_plan(FaultPlan(corrupt_rate=0.5)).data_timeout is None
    armed = ResilienceConfig.for_plan(FaultPlan(drop_rate=0.1))
    assert armed.data_timeout is not None and armed.handshake_timeout is not None


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------

def _decision_sequence(seed):
    sim = Simulator()
    inj = FaultInjector(sim, FaultPlan(
        seed=seed, corrupt_rate=0.3, drop_rate=0.1, oom_rate=0.2,
        pool_fail_rate=0.15, compress_fail_rate=0.25))
    out = []
    for _ in range(300):
        out.append(inj.transfer_outcome(0, 1, 4096))
        out.append(inj.should_fail_malloc(0, 1024))
        out.append(inj.should_fail_pool(0, 1024))
        out.append(inj.should_fail_compress("mpc"))
    return out


def test_injector_same_seed_same_decisions():
    assert _decision_sequence(5) == _decision_sequence(5)


def test_injector_seed_changes_decisions():
    assert _decision_sequence(5) != _decision_sequence(6)


def test_injector_inactive_window_never_fires():
    sim = Simulator()
    inj = FaultInjector(sim, FaultPlan(
        seed=1, corrupt_rate=1.0, drop_rate=1.0, active_after=1e9))
    assert all(inj.transfer_outcome(0, 1, 64) == "ok" for _ in range(50))


def test_backoff_delay_deterministic_and_bounded():
    import random

    cfg = ResilienceConfig()
    a = [cfg.backoff_delay(i, random.Random(0)) for i in range(1, 9)]
    b = [cfg.backoff_delay(i, random.Random(0)) for i in range(1, 9)]
    assert a == b
    for attempt, d in enumerate(a, start=1):
        base = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        assert base <= d <= base * (1 + JITTER)


# ---------------------------------------------------------------------------
# recovery, per fault class: bit-exact delivery + audit trail
# ---------------------------------------------------------------------------

def _faults_total(res):
    return res.tracer.metrics.counter_total("faults.injected")


def test_recovers_from_wire_corruption():
    res, payloads = run_pt2pt(faults=FaultPlan(seed=2, corrupt_rate=0.4))
    assert_bit_exact(res, payloads)
    m = res.tracer.metrics
    assert m.counter("faults.injected", kind="corrupt") > 0
    # a flipped bit either breaks the decode outright or survives it and
    # trips the CRC check — both must end in a retransmission
    assert (m.counter_total("resilience.crc_mismatch")
            + m.counter_total("resilience.decode_error")) > 0
    assert m.counter_total("resilience.retransmit") > 0
    assert m.counter_total("resilience.recovered") > 0
    # recovery is visible on the faults track
    tracks = {r.track for r in res.tracer.records}
    assert "faults" in tracks


def test_recovers_from_payload_drop():
    res, payloads = run_pt2pt(faults=FaultPlan(seed=3, drop_rate=0.3))
    assert_bit_exact(res, payloads)
    m = res.tracer.metrics
    assert m.counter("faults.injected", kind="drop") > 0
    assert m.counter_total("resilience.data_timeout") > 0
    assert m.counter_total("resilience.retransmit") > 0


@pytest.mark.parametrize("config, plan", [
    pytest.param(MPC, FaultPlan(seed=3, drop_rate=0.3), id="mpc-opt-drop"),
    pytest.param(MPC.with_(pipeline=True), FaultPlan(seed=3, drop_rate=0.3),
                 id="mpc-opt-pipelined-drop"),
    pytest.param(CompressionConfig.disabled(),
                 FaultPlan(seed=3, drop_rate=0.3), id="disabled-drop"),
])
def test_retired_messages_leave_no_data_waiters(config, plan):
    """A DATA waiter whose attempt timed out is withdrawn when its
    message retires, and a late delivery for it is not parked: the
    matching report is the diagnostic of every later hang, so it must
    not name messages that completed long ago."""
    x = np.linspace(0.0, 1.0, (2 << 20) // 4, dtype=np.float32)
    res, payloads = run_pt2pt(config=config, faults=plan, payloads=[x] * 8)
    assert_bit_exact(res, payloads)
    assert res.runtime.matching_report() == "all ranks idle"


def test_retired_retry_drops_its_late_delivery(sim):
    """The DATA of a retry that arrives after its message retired (the
    waiter was withdrawn) is dropped, not parked as an early packet."""
    m = MatchingEngine(sim, 1)
    m.expect_data(5, 0, 1)
    m.withdraw_data(5)
    m.deliver_data(Data(0, 5, 0, 1, np.zeros(4, np.float32)))
    assert m.idle
    assert "early" not in m.diagnostics()


def test_recovers_from_transient_oom_and_pool_exhaustion():
    res, payloads = run_pt2pt(
        faults=FaultPlan(seed=4, oom_rate=0.3, pool_fail_rate=0.3))
    assert_bit_exact(res, payloads)
    assert _faults_total(res) > 0
    assert res.tracer.metrics.counter_total("resilience.retry") > 0


def test_recovers_from_compressor_failures():
    res, payloads = run_pt2pt(
        faults=FaultPlan(seed=5, compress_fail_rate=0.6))
    assert_bit_exact(res, payloads)
    m = res.tracer.metrics
    assert m.counter("faults.injected", kind="compress_fail") > 0
    assert m.counter_total("resilience.fallback") > 0


def test_recovers_from_decompress_corruption():
    res, payloads = run_pt2pt(
        faults=FaultPlan(seed=5, decompress_corrupt_rate=0.5))
    assert_bit_exact(res, payloads)
    m = res.tracer.metrics
    assert m.counter("faults.injected", kind="decompress_corrupt") > 0
    assert m.counter_total("resilience.crc_mismatch") > 0


def test_codec_faults_reach_only_the_engine_of_the_run():
    """Codec faults are drawn by the run's ``CompressionEngine`` from
    ``sim.faults``.  They used to be a process-global registry hook that
    handed *every* ``get_compressor`` caller a flaky proxy while a
    faulted run was in progress (the RPRT writer's block codec
    included)."""
    from repro.compression import MpcCompressor, get_compressor

    x = make_payload("wave", 256 * 1024, seed=1)

    def rank_fn(comm):
        codec = get_compressor("mpc")
        comp = codec.compress(x)  # compress_fail_rate=1.0 is not ours to feel
        yield from comm.barrier()
        return type(codec), codec.decompress(comp).tobytes() == x.tobytes()

    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rank_fn, config=MPC, faults=FaultPlan(seed=1, compress_fail_rate=1.0))
    assert res.values == [(MpcCompressor, True)] * 2


def test_registry_has_no_fault_hook_and_no_state_set_by_a_run():
    from repro.compression import registry

    assert not hasattr(registry, "install_fault_wrapper")
    assert not hasattr(registry, "uninstall_fault_wrapper")
    outside = dict(vars(registry))

    def rank_fn(comm):
        inside = vars(registry)
        yield from comm.barrier()
        return inside.keys() == outside.keys() and all(
            inside[k] is v for k, v in outside.items())

    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rank_fn, config=MPC,
        faults=FaultPlan(seed=1, compress_fail_rate=0.5,
                         decompress_corrupt_rate=0.5))
    assert res.values == [True, True]


def test_retry_exhaustion_raises_integrity_error():
    # uncompressed wire payloads: corruption always surfaces as a CRC
    # mismatch (a compressed stream may instead break the decode, which
    # exhausts as RetryExhaustedError)
    with pytest.raises(IntegrityError) as exc:
        run_pt2pt(config=CompressionConfig.disabled(),
                  faults=FaultPlan(seed=9, corrupt_rate=1.0), iterations=1)
    assert "crc_mismatch" in str(exc.value)


def test_zero_retries_fails_fast_on_corruption():
    with pytest.raises(IntegrityError):
        run_pt2pt(config=CompressionConfig.disabled(),
                  faults=FaultPlan(seed=10, corrupt_rate=1.0), iterations=1,
                  resilience=ResilienceConfig(max_retries=0))


def test_baseline_uncompressed_also_recovers():
    res, payloads = run_pt2pt(
        config=CompressionConfig.disabled(),
        faults=FaultPlan(seed=11, corrupt_rate=0.4))
    assert_bit_exact(res, payloads)
    assert res.tracer.metrics.counter_total("resilience.retransmit") > 0


def test_pipelined_send_recovers_from_corruption():
    res, payloads = run_pt2pt(
        config=CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4),
        faults=FaultPlan(seed=12, corrupt_rate=0.3))
    # lossy codec: compare against the clean run's delivery instead
    clean, _ = run_pt2pt(
        config=CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4),
        payloads=payloads)
    for want, got in zip(clean.values[1], res.values[1]):
        assert np.array_equal(want, got)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

def test_breaker_state_machine():
    transitions = []
    br = CircuitBreaker(threshold=3, cooldown=1.0,
                        on_transition=lambda old, new, now: transitions.append((old, new)))
    assert br.allow(0.0)
    br.record_failure(0.0)
    br.record_failure(0.0)
    assert br.state == CircuitBreaker.CLOSED and br.allow(0.0)
    br.record_failure(0.0)                    # third strike
    assert br.state == CircuitBreaker.OPEN
    assert not br.allow(0.5)                  # still cooling down
    assert br.allow(1.5)                      # cooldown over -> trial
    assert br.state == CircuitBreaker.HALF_OPEN
    br.record_failure(1.5)                    # trial failed -> re-open
    assert br.state == CircuitBreaker.OPEN
    assert br.allow(3.0)
    br.record_success(3.0)                    # trial succeeded
    assert br.state == CircuitBreaker.CLOSED
    assert transitions == [
        ("closed", "open"), ("open", "half_open"), ("half_open", "open"),
        ("open", "half_open"), ("half_open", "closed"),
    ]


def test_breaker_disabled_with_zero_threshold():
    br = CircuitBreaker(threshold=0, cooldown=1.0)
    for _ in range(10):
        br.record_failure(0.0)
    assert br.state == CircuitBreaker.CLOSED and br.allow(0.0)


def test_breaker_half_open_retrip_restarts_cooldown():
    """A failed half-open trial re-opens with a *fresh* cool-down."""
    br = CircuitBreaker(threshold=2, cooldown=1.0)
    br.record_failure(0.0)
    br.record_failure(0.0)                    # trip at t=0
    assert not br.allow(0.5)
    assert br.allow(1.5)                      # half-open trial
    br.record_failure(1.5)                    # trial fails -> re-trip
    assert br.state == CircuitBreaker.OPEN
    assert not br.allow(2.0)                  # old cooldown would allow
    assert not br.allow(2.4)
    assert br.allow(2.6)                      # fresh cooldown from t=1.5
    assert br.state == CircuitBreaker.HALF_OPEN
    br.record_success(2.6)
    assert br.state == CircuitBreaker.CLOSED


def test_breaker_trip_vs_retrip_metrics():
    """Runtime's breaker transition hook counts first trips apart from
    half-open re-trips."""
    from repro.core.config import CompressionConfig
    from repro.gpu.device import Device
    from repro.mpi.cluster import Runtime
    from repro.network.topology import Topology
    from repro.sim import Tracer

    sim = Simulator()
    tracer = Tracer(sim)
    preset = machine_preset("longhorn")
    topology = Topology(sim, preset, 2, 1)
    devices = [Device(sim, preset.device, i) for i in range(2)]
    rt = Runtime(sim, topology, devices, CompressionConfig.disabled(),
                 resilience=ResilienceConfig(breaker_threshold=2,
                                             breaker_cooldown=1.0))
    br = rt.breaker_of(0, 1)
    br.record_failure(0.0)
    br.record_failure(0.0)                    # first trip
    br.allow(1.5)                             # half-open
    br.record_failure(1.5)                    # re-trip
    br.allow(3.0)                             # half-open again
    br.record_success(3.0)                    # close
    m = tracer.metrics
    assert m.counter("resilience.breaker_trips", kind="trip") == 1
    assert m.counter("resilience.breaker_trips", kind="retrip") == 1
    assert m.counter("resilience.breaker_transitions", state="open") == 2


def test_breaker_trips_under_persistent_compressor_failure():
    res, payloads = run_pt2pt(
        faults=FaultPlan(seed=13, compress_fail_rate=0.9),
        iterations=10)
    assert_bit_exact(res, payloads)
    m = res.tracer.metrics
    assert m.counter("resilience.breaker_transitions", state="open") > 0
    assert m.counter_total("resilience.breaker_veto") > 0
    labels = {r.label for r in res.tracer.records if r.category == "resilience"}
    assert "breaker_open" in labels


# ---------------------------------------------------------------------------
# timeout + deadlock diagnostics
# ---------------------------------------------------------------------------

def test_handshake_timeout_raises_with_diagnostic():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload("omb", 1 << 18, seed=0)

    def sender_only(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=0)
        else:
            yield comm.sim.timeout(1.0)  # never posts the recv
        return None

    with pytest.raises(RendezvousTimeoutError) as exc:
        cluster.run(sender_only, config=MPC,
                    resilience=ResilienceConfig(handshake_timeout=0.01))
    msg = str(exc.value)
    assert "CTS" in msg or "handshake" in msg
    assert "rank" in msg  # carries the matching-state dump
    # the dump is enriched with per-peer last-heard sim times: rank 1
    # received rank 0's RTS, so its lane shows when it last heard 0
    assert "last heard" in msg
    assert "outstanding" in msg


def test_deadlock_error_carries_matching_dump():
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.recv(1, tag=5)  # never satisfied
        return None

    with pytest.raises(DeadlockError) as exc:
        cluster.run(rank_fn, config=MPC)
    assert "posted recv" in str(exc.value)
    assert exc.value.diagnostic


# ---------------------------------------------------------------------------
# CR >= 1 uncompressed fallback: bit-exact for every registered codec
# (satellite 3)
# ---------------------------------------------------------------------------

def _incompressible(nbytes, dtype, seed, bits=True):
    """Incompressible payloads.  ``bits=True`` is uniform random *bit
    patterns* (defeats every lossless codec; may contain NaNs, which is
    why comparisons go through ``tobytes``); ``bits=False`` is white
    noise in [1, 2) — finite values for codecs that do arithmetic."""
    rng = np.random.default_rng(seed)
    if bits:
        return np.frombuffer(rng.bytes(nbytes), dtype=dtype).copy()
    n = nbytes // np.dtype(dtype).itemsize
    return (rng.random(n) + 1.0).astype(dtype)


@pytest.mark.parametrize("algorithm,dtype,kwargs,bits", [
    ("mpc", np.float32, {}, True),
    ("mpc", np.float64, {}, True),
    ("fpc", np.float64, {}, True),
    ("gfc", np.float64, {}, True),
    ("sz", np.float32, dict(sz_error_bound=1e-12), False),
    ("zfp", np.float32, dict(zfp_rate=32), False),  # rate == dtype bits -> CR 1
    ("null", np.float32, {}, False),
])
@pytest.mark.parametrize("nbytes", [256 * 1024, 1 << 20])
def test_cr1_fallback_bit_exact(algorithm, dtype, kwargs, bits, nbytes):
    config = CompressionConfig(enabled=True, algorithm=algorithm, **kwargs)
    payloads = [_incompressible(nbytes, dtype, seed=i, bits=bits)
                for i in range(2)]
    res, _ = run_pt2pt(config=config, payloads=payloads)
    assert_bit_exact(res, payloads)
    # the engine must actually have taken the raw-fallback path
    m = res.tracer.metrics
    assert m.counter("compress.fallback", codec=algorithm) >= 1


def test_fallback_under_faults_still_bit_exact():
    """Fallback sends remain protected by CRC + retransmission."""
    payloads = [_incompressible(256 * 1024, np.float32, seed=i, bits=True)
                for i in range(3)]
    res, _ = run_pt2pt(payloads=payloads,
                       faults=FaultPlan(seed=14, corrupt_rate=0.4))
    assert_bit_exact(res, payloads)
    assert res.tracer.metrics.counter_total("resilience.retransmit") > 0


# ---------------------------------------------------------------------------
# faults on relayed (keep-compressed) collective hops
# ---------------------------------------------------------------------------

def _run_bcast_4ranks(faults=None, iters=3):
    """4-rank binomial bcast on 2x2 longhorn: hops 0->2, 0->1, 2->3.
    The 2->3 hop relays rank 0's wire image, so faults there exercise
    NACK + retransmit from the *intermediate* rank's retained copy."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=2)
    payloads = [make_payload("dataset:msg_sppm", 1 << 18, seed=i)
                for i in range(iters)]

    def rank_fn(comm):
        got = []
        for p in payloads:
            out = yield from comm.bcast(p if comm.rank == 0 else None, root=0)
            got.append(np.asarray(out))
        return got

    return cluster.run(rank_fn, config=MPC, faults=faults, max_time=120.0)


def _relay_retransmits(res, root=0):
    """Retransmitted wire spans whose sender is NOT the collective root
    — i.e. a relayed hop was re-fed from its immediate upstream."""
    return [r for r in res.tracer.records
            if r.label == "wire_transfer" and r.meta.get("attempt")
            and r.rank != root]


def test_relayed_hop_corruption_and_drop_recover_bit_exact():
    clean = _run_bcast_4ranks()
    # seed 3 corrupts AND drops on the relayed 2->3 hop (among others)
    faulty = _run_bcast_4ranks(
        faults=FaultPlan(seed=3, corrupt_rate=0.25, drop_rate=0.1))
    for want, got in zip(clean.values, faulty.values):
        for w, g in zip(want, got):
            assert w.tobytes() == g.tobytes()
    m = faulty.tracer.metrics
    assert m.counter("faults.injected", kind="corrupt") > 0
    assert m.counter("faults.injected", kind="drop") > 0
    # the wire CRC (checked WITHOUT decompressing) caught the flip...
    assert m.counter_total("resilience.wire_crc_mismatch") > 0
    assert m.counter_total("resilience.data_timeout") > 0
    assert m.counter_total("resilience.retransmit") > 0
    # ...and at least one recovery was served by an intermediate rank
    relays = _relay_retransmits(faulty)
    assert relays
    # the relayed retransmit still carries the ORIGINATING seq, so the
    # trace can stitch the recovered hop back to its pack_wire span
    assert all("origin_seq" in r.meta for r in relays)


def test_relayed_hop_drop_only_recovers():
    clean = _run_bcast_4ranks()
    faulty = _run_bcast_4ranks(faults=FaultPlan(seed=5, drop_rate=0.1))
    for want, got in zip(clean.values, faulty.values):
        for w, g in zip(want, got):
            assert w.tobytes() == g.tobytes()
    m = faulty.tracer.metrics
    assert m.counter("faults.injected", kind="drop") > 0
    assert m.counter_total("resilience.data_timeout") > 0
    assert _relay_retransmits(faulty)


def test_allgather_ring_under_faults_bit_exact():
    """Every allgather hop beyond the first is a relay; corruption on
    any of them must recover from the immediate upstream."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=2)
    base = make_payload("dataset:msg_sppm", 1 << 18, seed=0)

    def rank_fn(comm):
        mine = base + np.asarray(comm.rank, dtype=base.dtype)
        out = yield from comm.allgather(mine)
        return [np.asarray(c) for c in out]

    clean = cluster.run(rank_fn, config=MPC, max_time=120.0)
    faulty = cluster.run(rank_fn, config=MPC, max_time=120.0,
                         faults=FaultPlan(seed=2, corrupt_rate=0.2))
    for want, got in zip(clean.values, faulty.values):
        for w, g in zip(want, got):
            assert w.tobytes() == g.tobytes()
    m = faulty.tracer.metrics
    assert m.counter("faults.injected", kind="corrupt") > 0
    assert m.counter_total("resilience.retransmit") > 0


# ---------------------------------------------------------------------------
# chaos harness
# ---------------------------------------------------------------------------

def test_chaos_harness_reports_clean_sweep():
    report = run_chaos(sizes=(256 * 1024,), iterations=3,
                       plan=FaultPlan(seed=1, corrupt_rate=0.2))
    assert report.ok
    assert report.total_messages == 3
    assert sum(r.faults_injected.get("corrupt", 0) for r in report.results) > 0
    assert "all payloads verified" in report.summary()


def test_chaos_harness_lossy_codec():
    report = run_chaos(sizes=(256 * 1024,), iterations=2,
                       config=CompressionConfig.zfp_opt(8),
                       plan=FaultPlan(seed=2, corrupt_rate=0.2, drop_rate=0.1))
    assert report.ok


@pytest.mark.parametrize("workload", ["bcast", "allgather", "allreduce"])
def test_chaos_harness_collective_workloads(workload):
    report = run_chaos(sizes=(256 * 1024,), iterations=2,
                       payload="dataset:msg_sppm", workload=workload,
                       plan=FaultPlan(seed=1, corrupt_rate=0.15,
                                      drop_rate=0.05))
    assert report.ok
    assert report.total_messages > 0


@pytest.mark.parametrize("workload", ["bcast", "allgather", "allreduce"])
def test_chaos_keep_compressed_collective_survives_silent_decode_faults(workload):
    """The one consumer-side decompression of a keep-compressed
    collective (``unpack_wire``) decodes again after a transient
    post-decode CRC mismatch; it used to abort the whole run."""
    report = run_chaos(sizes=(256 * 1024,), iterations=3, workload=workload,
                       plan=FaultPlan(seed=2, decompress_corrupt_rate=0.3))
    assert report.ok and report.total_messages > 0
    r, = report.results
    assert r.faults_injected.get("decompress_corrupt", 0) > 0
    assert r.recovery_events.get("recovered", 0) > 0
    assert r.recovery_events.get("retransmit", 0) == 0


@pytest.mark.parametrize("faults,attempts", [
    (None, 1),  # no fault plane: no retry
    (FaultPlan(seed=1, decompress_corrupt_rate=1e-9), 3),  # budget of 2, spent
])
def test_unpack_wire_mismatch_that_is_not_transient_still_raises(faults, attempts):
    x = make_payload("wave", 256 * 1024, seed=3)

    def rank_fn(comm):
        wire = yield from comm.pack_wire(x)
        wrong = dataclasses.replace(wire, crc=wire.crc ^ 1)
        try:
            yield from comm.unpack_wire(wrong)
        except IntegrityError as exc:
            return str(exc)

    res = Cluster("longhorn", nodes=1, gpus_per_node=1).run(
        rank_fn, config=MPC, faults=faults,
        resilience=ResilienceConfig(max_retries=2))
    assert res.values == [
        "rank 0: wire image origin_seq=1 failed its post-decode CRC"]
    spans = [r for r in res.tracer.records if r.label == "unpack_wire"]
    assert len(spans) == attempts
    m = res.tracer.metrics
    assert m.counter_total("resilience.crc_mismatch") == attempts - 1
    assert m.counter_total("resilience.recovered") == 0


def _three_keep_compressed_collectives(comm):
    mine = make_payload("wave", 384 * 1024, seed=comm.rank)
    blocks = yield from comm.allgather(mine)
    total = yield from comm.allreduce(
        make_payload("wave", 768 * 1024, seed=10 + comm.rank), algorithm="ring")
    root = yield from comm.bcast(mine if comm.rank == 0 else None, root=0)
    return blocks + [total, root]


def test_keep_compressed_consumer_retries_a_transient_allocation_fault():
    """``unpack_wire`` allocates its staging buffer inside its retry
    loop: an injected OOM / pool exhaustion there is retried like the
    same allocation of a point-to-point receive; it used to escape and
    abort the run (6 of 6 seeds 14-19)."""
    cluster = Cluster("longhorn", 3, 2)
    clean = cluster.run(_three_keep_compressed_collectives, config=MPC)
    faulty = cluster.run(_three_keep_compressed_collectives, config=MPC,
                         faults=FaultPlan(seed=17, oom_rate=0.3,
                                          pool_fail_rate=0.3))
    for want, got in zip(clean.values, faulty.values):
        assert [w.tobytes() for w in want] == [g.tobytes() for g in got]
    retries = [r for r in faulty.tracer.records if r.label == "retry"
               and r.meta["stage"] == "unpack_wire"]
    assert retries and {r.meta["error"] for r in retries} <= {
        "OutOfDeviceMemoryError", "BufferPoolExhaustedError"}
    assert faulty.tracer.metrics.counter_total("resilience.recovered") > 0
    assert faulty.tracer.metrics.counter_total("resilience.retransmit") == 0
    # and nothing but the retries: no span a fault-free run does not have
    assert not [r for r in clean.tracer.records if r.track == "faults"]


@pytest.mark.parametrize("faults,attempts", [
    (None, 1),  # no fault plane: no retry
    (FaultPlan(seed=1, decompress_corrupt_rate=1e-9), 3),  # budget of 2, spent
])
def test_unpack_wire_allocation_fault_that_is_not_transient_still_raises(
        faults, attempts, monkeypatch):
    x = make_payload("wave", 256 * 1024, seed=3)

    def rank_fn(comm):
        wire = yield from comm.pack_wire(x)

        def exhausted(header):
            raise BufferPoolExhaustedError("no buffer")
            yield

        monkeypatch.setattr(comm._rt.engine_of(0), "receiver_prepare", exhausted)
        try:
            yield from comm.unpack_wire(wire)
        except BufferPoolExhaustedError as exc:
            return str(exc)

    res = Cluster("longhorn", nodes=1, gpus_per_node=1).run(
        rank_fn, config=MPC, faults=faults,
        resilience=ResilienceConfig(max_retries=2))
    assert res.values == ["no buffer"]
    spans = [r for r in res.tracer.records if r.label == "unpack_wire"]
    assert len(spans) == attempts
    m = res.tracer.metrics
    assert m.counter_total("resilience.retry") == attempts - 1
    assert m.counter_total("resilience.recovered") == 0


def test_retried_receiver_prepare_records_recovered():
    """A receive whose ``receiver_prepare`` absorbed a transient
    allocation fault records ``recovered`` once the allocation
    succeeds — the same rule as ``unpack_wire``'s in-place retry."""
    res, payloads = run_pt2pt(faults=FaultPlan(seed=14, oom_rate=0.3,
                                               pool_fail_rate=0.3))
    assert_bit_exact(res, payloads)
    faults = [r for r in res.tracer.records if r.track == "faults"]
    retries = [i for i, r in enumerate(faults) if r.label == "retry"
               and r.meta["stage"] == "receiver_prepare"]
    assert retries
    for i in retries:
        seq = faults[i].meta["seq"]
        assert [r.label for r in faults[i + 1:]
                if r.label == "recovered" and r.meta["seq"] == seq] \
            == ["recovered"]
    retried = {faults[i].meta["seq"] for i in retries}
    recovered = res.tracer.metrics.counter_total("resilience.recovered")
    assert recovered >= len(retried)


def test_chaos_seed_sweep_aggregates():
    """The sweep reruns one message-fault plan under consecutive seeds."""
    plan = FaultPlan(seed=1, corrupt_rate=0.15, drop_rate=0.05)
    sweep = run_chaos_sweep(n_seeds=2, base_seed=1, plan=plan,
                            workload="allreduce", sizes=(1 << 15,),
                            iterations=4)
    assert sweep.ok
    assert sweep.seeds == (1, 2)
    assert [r.plan.seed for r in sweep.reports] == [1, 2]
    assert all(r.plan.corrupt_rate == 0.15 for r in sweep.reports)
    injected = [sum(sum(sr.faults_injected.values()) for sr in r.results)
                for r in sweep.reports]
    assert all(injected)
    text = sweep.summary()
    assert "2 seeds" in text and "recovered bit-exactly" in text


def test_chaos_rejects_unknown_workload():
    with pytest.raises(ValueError):
        run_chaos(workload="gatherv")
