"""The single-pass keep-compressed data plane (ISSUE 13).

Per hop a buffer is decoded at most once, hashed at most once and
copied at most once — and not at all when the rank already holds the
answer.  These tests hold the fast path to the behaviour of the slow
one: the fused reduction against ``Compressor.reduce_compressed`` (the
oracle), the collectives against values captured at the parent commit,
the codec-execution budget at the point the kernels are invoked, and
every integrity check under a fault plan.
"""

import sys
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.bench import named_config
from repro.compression import MpcCompressor
from repro.compression.base import CompressedData
from repro.compression.cache import GLOBAL_CODEC_CACHE, CodecCache
from repro.core import CompressionConfig, CompressionEngine
from repro.errors import CompressionError, IntegrityError
from repro.faults import FaultPlan
from repro.gpu.device import Device
from repro.gpu.spec import V100
from repro.mpi.cluster import Cluster
from repro.mpi.collectives import _T_RING_RS
from repro.mpi.resilience import ResilienceConfig
from repro.omb.payload import make_payload
from repro.sim import Simulator, Tracer
from repro.utils.integrity import flip_bit, payload_crc32

from tests import pins
from tests.conftest import smooth_f32

MPC = CompressionConfig.mpc_opt()


def _crc(arr) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).view(np.uint8))


# -- (a) the fused step against the reduce_compressed oracle -------------------

_SPECIALS = {
    np.float32: np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45, -3e-42],
                         dtype=np.float32),
    np.float64: np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -1e-310],
                         dtype=np.float64),
}


def _operand(rng, n, dtype, n_specials):
    x = np.cumsum(rng.standard_normal(n) * 1e-3).astype(dtype)
    if n_specials:
        at = rng.choice(n, size=n_specials, replace=False)
        x[at] = rng.choice(_SPECIALS[dtype], size=n_specials)
    return x


def _engine(parts):
    sim = Simulator()
    Tracer(sim)
    cfg = CompressionConfig.mpc_opt(threshold=0).with_(partitions=parts)
    return sim, CompressionEngine(sim, Device(sim, V100, 0), cfg)


def _split(header, payload):
    pieces, offset = [], 0
    for size in header.partition_sizes:
        pieces.append(payload[offset:offset + size])
        offset += size
    return pieces


def _oracle(header_a, payload_a, header_b, payload_b):
    """``reduce_compressed`` per partition, then the stamp the slow way:
    decode the result and hash it."""
    codec = MpcCompressor(**header_a.codec_params())
    dtype = np.dtype(header_a.dtype_name)
    counts = [len(p) for p in
              np.array_split(np.empty(header_a.n_elements), header_a.n_partitions)]
    reduced = []
    for count, pa, pb in zip(counts, _split(header_a, payload_a),
                             _split(header_b, payload_b)):
        a, b = (CompressedData("mpc", p, count, dtype, header_a.codec_params())
                for p in (pa, pb))
        reduced.append(codec.reduce_compressed(a, b))
    decoded = np.concatenate([codec.decompress(c) for c in reduced])
    return ([c.nbytes for c in reduced],
            np.concatenate([c.payload for c in reduced]), decoded)


def _pack(a, b, parts):
    sim, eng = _engine(parts)

    def pack():
        plan_a = yield from eng.sender_prepare(a)
        plan_b = yield from eng.sender_prepare(b)
        return plan_a, plan_b

    return sim, eng, sim.run_process(pack())


def _check_fused(sim, eng, a, plan_a, plan_b):
    assert plan_a.header.n_partitions == plan_b.header.n_partitions
    header, payload, crc, wire_crc, total = sim.run_process(
        eng.reduce_wire_payload(plan_a.header, a, plan_b.header, plan_b.payload))
    sizes, want_payload, want_decoded = _oracle(
        plan_a.header, plan_a.payload, plan_b.header, plan_b.payload)
    assert total.tobytes() == want_decoded.tobytes()
    assert crc == _crc(want_decoded)
    assert wire_crc == _crc(payload)
    if sum(sizes) >= a.nbytes:  # the sums stopped compressing
        assert not header.compressed
        assert payload.tobytes() == want_decoded.tobytes()
    else:
        assert header.partition_sizes == tuple(sizes)
        assert header.param == plan_a.header.param
        assert payload.tobytes() == want_payload.tobytes()
    return header


@pytest.mark.filterwarnings("ignore:invalid value encountered in add")
@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    parts=st.integers(1, 4),
    # lengths that are multiples of neither the partition count nor
    # MPC's 32-word block, and some that are
    n=st.integers(4 * 64, 3000),
    n_specials=st.integers(0, 12),
    seed=st.integers(0, 2 ** 16),
)
def test_fused_step_equals_reduce_compressed(dtype, parts, n, n_specials, seed):
    rng = np.random.default_rng(seed)
    a = _operand(rng, n, dtype, n_specials)
    b = _operand(rng, n, dtype, n_specials)
    sim, eng, (plan_a, plan_b) = _pack(a, b, parts)
    assume(plan_a.compressed and plan_b.compressed)
    assert plan_a.header.n_partitions == parts
    _check_fused(sim, eng, a, plan_a, plan_b)


@pytest.mark.filterwarnings("ignore:invalid value encountered in add")
@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_step_incompressible_fallback(dtype, parts):
    """Two half-empty operands compress; their sum is all noise and
    does not: the step degrades to a raw image of that same sum."""
    n = 4099
    noise = np.random.default_rng(5).integers(
        0, 256, size=n * np.dtype(dtype).itemsize, dtype=np.uint8).view(dtype)
    a, b = noise.copy(), noise.copy()
    a[n // 2:] = 0
    b[:n // 2] = 0
    sim, eng, (plan_a, plan_b) = _pack(a, b, parts)
    assert plan_a.compressed and plan_b.compressed
    assert not _check_fused(sim, eng, a, plan_a, plan_b).compressed


def test_fused_step_rejects_a_local_operand_of_the_wrong_shape():
    sim, eng = _engine(1)
    a = np.linspace(0, 1, 1000, dtype=np.float32)

    def proc():
        plan = yield from eng.sender_prepare(a)
        yield from eng.reduce_wire_payload(
            plan.header, a[:-1], plan.header, plan.payload)

    with pytest.raises(CompressionError, match="local operand"):
        sim.run_process(proc())


# -- (b) collectives pinned to the parent commit ------------------------------

def _allreduce(algorithm, nprocs, nbytes, seed0, faults=None, config=MPC,
               payloads=None, resilience=None):
    if payloads is None:
        payloads = [make_payload("dataset:msg_sppm", nbytes, seed=seed0 + r)
                    for r in range(nprocs)]

    def rank_fn(comm):
        out = yield from comm.allreduce(payloads[comm.rank], algorithm=algorithm)
        return comm.now, out

    GLOBAL_CODEC_CACHE.clear()
    res = Cluster("frontera-liquid", nodes=nprocs // 2, gpus_per_node=2).run(
        rank_fn, config=config, faults=faults, resilience=resilience,
        max_time=60.0)
    return res, payloads


def _pinned_allreduce(algorithm):
    """1 MiB of msg_sppm per rank (seeds 10..): each rank returns its
    completion time and its result."""
    def call(comm):
        data = make_payload("dataset:msg_sppm", 1 << 20, seed=10 + comm.rank)
        out = yield from comm.allreduce(data, algorithm=algorithm)
        return comm.now, out
    return call


_PINNED = (("ring", 4), ("ring", 6), ("recursive_doubling", 4),
           ("recursive_doubling", 8))

#: the allreduce cells, pinned in the run layers of ``tests/pins.py``
#: from runs that reproduced the times, CRCs, event counts, sends and
#: span counts captured at commit 1da878c (frontera-liquid n/2 x 2)
FAMILY = pins.Family("dataplane", {
    f"{algorithm}-{n}": pins.Scenario(_pinned_allreduce(algorithm), MPC,
                                      ("frontera-liquid", n // 2, 2))
    for algorithm, n in _PINNED})


@pytest.mark.parametrize("algorithm,nprocs", _PINNED)
def test_allreduce_pinned_to_parent(algorithm, nprocs):
    cell = f"{algorithm}-{nprocs}"
    scenario = FAMILY.cells[cell]
    got = scenario.observe()
    assert pins.digests(got, FAMILY.layers) == FAMILY.load()[cell]
    # and against a run that never compresses: same bits
    ref = pins.run(Cluster(*scenario.shape), scenario.fn,
                   config=CompressionConfig.disabled())
    assert ([_crc(out) for _, out in ref.out.values]
            == [_crc(out) for _, out in got.out.values])


# -- (c) the codec-execution budget --------------------------------------------

class _KernelCounter:
    """Counts real MPC executions where the kernels are invoked (the
    codec's own methods), and whether each lookup of an arrival by a
    fused reduction step (``decode_parts(..., keep=False)``) hit."""

    def __init__(self, monkeypatch):
        self.decoded = self.compressed = 0
        self.arrival_hits = []
        real_dec, real_enc = MpcCompressor.decompress, MpcCompressor.compress
        real_lookup = CodecCache.decode_parts
        counter = self

        def decompress(codec, comp):
            counter.decoded += 1
            return real_dec(codec, comp)

        def compress(codec, data):
            counter.compressed += 1
            return real_enc(codec, data)

        def decode_parts(cache, *args, keep=True, **kwargs):
            hits = cache.hits
            out = real_lookup(cache, *args, keep=keep, **kwargs)
            if not keep:
                counter.arrival_hits.append(cache.hits == hits + 1)
            return out

        monkeypatch.setattr(MpcCompressor, "decompress", decompress)
        monkeypatch.setattr(MpcCompressor, "compress", compress)
        monkeypatch.setattr(CodecCache, "decode_parts", decode_parts)


@pytest.mark.parametrize("nbytes,parts", [(1 << 19, 1), (1 << 20, 2)])
def test_ring_allreduce_codec_budget(monkeypatch, nbytes, parts):
    size = 4
    # distinct smooth data: no two chunks anywhere share their bytes
    payloads = [smooth_f32(nbytes // 4, seed=30 + r) for r in range(size)]
    counter = _KernelCounter(monkeypatch)
    _allreduce("ring", size, nbytes, 0, payloads=payloads)
    # MPC is lossless: every image a rank receives was encoded in this
    # process, which recorded its decode, so nothing is decoded for real
    assert counter.decoded == 0
    # packs (size chunks per rank) + one re-encode per reduce step
    assert counter.compressed == (size * size + size * (size - 1)) * parts
    stats = GLOBAL_CODEC_CACHE.stats()
    assert stats["decompress_execs"] == 0
    assert stats["compress_execs"] == counter.compressed
    # one fused step per arrival of the reduce-scatter, each a memo hit
    assert counter.arrival_hits == [True] * (size * (size - 1))


def _send_twice(x, mutate):
    """Rank 0 sends ``x``, mutates it in place, and sends it again."""
    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(x, 1, tag=0)
            mutate(x)
            yield from comm.send(x, 1, tag=1)
            return None
        first = yield from comm.recv(0, tag=0)
        return first, (yield from comm.recv(0, tag=1))
    return rank_fn


@pytest.mark.parametrize("config", [MPC, MPC.with_(pipeline=True)],
                         ids=["whole", "streamed"])
def test_a_mutated_send_buffer_is_received_mutated(config):
    """The second receive of a buffer mutated between two sends hands
    out the mutated bytes: each send records the decode of what it
    encoded, a snapshot, never the live buffer."""
    x = smooth_f32(1 << 18)
    before = x.copy()

    def mutate(buf):
        buf[::3] += 1.0

    GLOBAL_CODEC_CACHE.clear()
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        _send_twice(x, mutate), config=config, max_time=10.0)
    first, second = res.values[1]
    assert first.tobytes() == before.tobytes()
    assert second.tobytes() == x.tobytes() != before.tobytes()
    assert GLOBAL_CODEC_CACHE.stats()["decompress_execs"] == 0


def _pt2pt_outcome(res):
    injector = res.tracer._sim.faults
    return (res.elapsed, _resilience(res),
            repr(injector._rng.bit_generator.state),
            [payload_crc32(v) for v in res.values[1]])


def test_a_corrupted_image_misses_its_recorded_decode(monkeypatch):
    """Under wire corruption a damaged image misses the entry its sender
    recorded — decoded for real, failing its check — and is NACKed as
    when nothing was recorded: same RNG draws, same time, same counts."""
    x = make_payload("dataset:msg_sppm", 1 << 18, seed=1)
    plan = FaultPlan(seed=3, corrupt_rate=0.3)

    def rank_fn(comm):
        if comm.rank == 0:
            for i in range(8):
                yield from comm.send(x, 1, tag=i)
            return None
        got = []
        for i in range(8):
            got.append((yield from comm.recv(0, tag=i)))
        return got

    def run():
        GLOBAL_CODEC_CACHE.clear()
        return Cluster("longhorn", nodes=2, gpus_per_node=1).run(
            rank_fn, config=MPC, faults=plan, max_time=60.0)

    hits = []  # per decode lookup: did it hit?
    real = CodecCache.decode_parts

    def decode_parts(cache, *args, **kwargs):
        before = cache.hits
        try:
            return real(cache, *args, **kwargs)
        finally:
            hits.append(cache.hits > before)

    monkeypatch.setattr(CodecCache, "decode_parts", decode_parts)
    res = run()
    assert all(g.tobytes() == x.tobytes() for g in res.values[1])
    counts = _resilience(res)
    nacked = counts["crc_mismatch"] + res.tracer.metrics.counter_total(
        "resilience.decode_error")
    assert nacked > 0 and counts["retransmit"] == nacked
    # every intact arrival hits, every corrupted one misses
    assert hits.count(True) == 8 and hits.count(False) == nacked
    monkeypatch.setattr(CodecCache, "learn_decode",
                        lambda *args, **kwargs: None)
    assert _pt2pt_outcome(run()) == _pt2pt_outcome(res)


def _count_learns(monkeypatch) -> list:
    calls = []
    real = CodecCache.learn_decode

    def learn_decode(cache, *args, **kwargs):
        calls.append(args[0].name)
        return real(cache, *args, **kwargs)

    monkeypatch.setattr(CodecCache, "learn_decode", learn_decode)
    return calls


def _allgather_and_send(comm):
    data = smooth_f32(1 << 17, seed=comm.rank)
    yield from comm.allgather(data)
    if comm.rank == 0:
        yield from comm.send(data, 1)
    elif comm.rank == 1:
        yield from comm.recv(0)


@pytest.mark.parametrize("name,faults,learns", [
    ("mpc-opt", None, True),
    ("zfp8", None, False),
    ("zfp8-pipe", None, False),
    ("mpc-opt", FaultPlan(seed=1, decompress_corrupt_rate=1e-9), False),
    ("mpc-opt", FaultPlan(seed=1, compress_fail_rate=1e-9), False),
])
def test_only_a_lossless_codec_outside_codec_faults_records_decodes(
        monkeypatch, name, faults, learns):
    calls = _count_learns(monkeypatch)
    GLOBAL_CODEC_CACHE.clear()
    Cluster("longhorn", nodes=2, gpus_per_node=2).run(
        _allgather_and_send, config=named_config(name), faults=faults,
        max_time=60.0)
    assert bool(calls) == learns
    assert set(calls) <= {"mpc"}


#: bytes through ``zlib.crc32`` per side for one cold-cache rendezvous
#: message of R raw bytes and C wire bytes, per Fig 9 config: every
#: stamp is folded from CRCs the path already has
_HASHED = {
    # stamp the raw send; check the raw arrival
    "baseline": lambda r, c: (r, r),
    # sender: the cache's per-partition fingerprints, folded into the
    # stamp, then the key the decode is recorded under; receiver: the
    # memo key, a hit that carries the stamp
    "mpc-opt": lambda r, c: (r + c, c),
    # sender: fingerprint, then the expected-value decode's memo key and
    # CRC; receiver: the memo key, a hit that carries the CRC
    "zfp8": lambda r, c: (2 * r + c, c),
    # the same per partition; the receiver folds the parts' CRCs
    "zfp8-pipe": lambda r, c: (2 * r + c, c),
}


@pytest.mark.parametrize("name", sorted(_HASHED))
def test_bytes_hashed_per_side_of_one_message(monkeypatch, name):
    x = smooth_f32(1 << 20)                              # 4 MiB
    hashed = {}
    real = zlib.crc32

    def crc32(data, *args):
        names = set()
        frame = sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        side = ("sender" if names & {"_send_proc", "push"} else
                "receiver" if names & {"_recv_proc", "arrive_part"} else
                "elsewhere")
        hashed[side] = hashed.get(side, 0) + memoryview(data).nbytes
        return real(data, *args)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(x, 1)
            return None
        return (yield from comm.recv(0))

    GLOBAL_CODEC_CACHE.clear()
    monkeypatch.setattr(zlib, "crc32", crc32)
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rank_fn, config=named_config(name), trace=True, max_time=10.0)
    monkeypatch.undo()
    assert res.values[1].shape == x.shape
    wire = int(res.tracer.metrics.counter_total("compress.bytes_out")) or x.nbytes
    sender, receiver = _HASHED[name](x.nbytes, wire)
    assert hashed == {"sender": sender, "receiver": receiver}


# -- (d) integrity under a fault plan -----------------------------------------

#: 4-rank ring allreduce, 512 KiB of msg_sppm per rank (seeds 20..):
#: clean CRC and, per fault plan, what the parent commit recorded
_CLEAN_CRC = 1572163979


def _resilience(res):
    m = res.tracer.metrics
    return {k: m.counter_total("resilience." + k)
            for k in ("wire_crc_mismatch", "crc_mismatch", "data_timeout",
                      "retransmit", "recovered")}


def _retransmitted_reduce_scatter_seqs(res):
    tags = {r.meta["seq"]: r.meta.get("tag")
            for r in res.tracer.records if r.label == "rts"}
    return sorted({r.meta["seq"] for r in res.tracer.records
                   if r.label == "wire_transfer" and r.meta.get("attempt")
                   and tags.get(r.meta["seq"]) == _T_RING_RS})


def test_corrupted_partial_sum_is_nacked_and_retransmitted():
    res, _ = _allreduce("ring", 4, 1 << 19, 20,
                        faults=FaultPlan(seed=3, corrupt_rate=0.2))
    assert [_crc(out) for _, out in res.values] == [_CLEAN_CRC] * 4
    assert res.elapsed == 0.0005893831508322344
    assert _resilience(res) == {"wire_crc_mismatch": 4, "crc_mismatch": 0,
                                "data_timeout": 0, "retransmit": 4,
                                "recovered": 3}
    # seq 27 and 35 carry partial sums (the second and third ring step)
    assert _retransmitted_reduce_scatter_seqs(res) == [19, 27, 35]


def test_drop_in_the_middle_of_a_ring_step_recovers():
    res, _ = _allreduce("ring", 4, 1 << 19, 20,
                        faults=FaultPlan(seed=3, drop_rate=0.15))
    assert [_crc(out) for _, out in res.values] == [_CLEAN_CRC] * 4
    assert res.elapsed == 0.7505552241752802
    assert _resilience(res) == {"wire_crc_mismatch": 0, "crc_mismatch": 0,
                                "data_timeout": 3, "retransmit": 3,
                                "recovered": 3}
    assert _retransmitted_reduce_scatter_seqs(res) == [19, 30]


@pytest.mark.parametrize("seed,failing", [
    (1, "rank 2: wire image origin_seq=39"),
    (5, "rank 3: wire image origin_seq=40"),
    (6, "rank 1: wire image origin_seq=37"),
])
def test_silent_decompress_fault_in_unpack_wire_raises(seed, failing):
    """The final unpack decodes for real under a codec-fault plan and
    hashes what came out.  With no retry budget the same image fails as
    on the commit before ISSUE 13 (same RNG draws, so same victim); with
    the default budget (ISSUE 22) the rank decodes the bytes it holds
    again and every result is the clean one."""
    plan = FaultPlan(seed=seed, decompress_corrupt_rate=0.05)
    with pytest.raises(IntegrityError, match=failing):
        _allreduce("ring", 4, 1 << 19, 20, faults=plan,
                   resilience=ResilienceConfig(max_retries=0))
    res, _ = _allreduce("ring", 4, 1 << 19, 20, faults=plan)
    assert [_crc(out) for _, out in res.values] == [_CLEAN_CRC] * 4
    got = _resilience(res)
    assert got["crc_mismatch"] > 0 and got["recovered"] > 0
    assert got["retransmit"] == 0  # the wire bytes were never in doubt


def test_silent_decompress_plan_leaves_reduce_steps_alone():
    """The fused step decodes arrivals with the unwrapped codec (the
    wire CRC already vouched for those bytes), as the parent's did: a
    plan whose draws all miss finishes at the fault-free time."""
    res, _ = _allreduce("ring", 4, 1 << 19, 20,
                        faults=FaultPlan(seed=2, decompress_corrupt_rate=0.05))
    assert [_crc(out) for _, out in res.values] == [_CLEAN_CRC] * 4
    assert res.elapsed == 0.0004734959263006197
    assert res.tracer.metrics.counter("faults.injected",
                                      kind="decompress_corrupt") == 0


def test_silent_decompress_fault_in_rendezvous_recovers():
    """Plain rendezvous: the corrupted decode fails the post-decode
    CRC, is NACKed, and the retransmission delivers."""
    x = make_payload("dataset:msg_sppm", 1 << 18, seed=1)

    def rank_fn(comm):
        if comm.rank == 0:
            for i in range(6):
                yield from comm.send(x, 1, tag=i)
            return None
        got = []
        for i in range(6):
            got.append((yield from comm.recv(0, tag=i)))
        return got

    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rank_fn, config=MPC, max_time=60.0,
        faults=FaultPlan(seed=4, decompress_corrupt_rate=0.3))
    assert all(g.tobytes() == x.tobytes() for g in res.values[1])
    m = res.tracer.metrics
    assert m.counter("faults.injected", kind="decompress_corrupt") > 0
    assert m.counter_total("resilience.crc_mismatch") > 0
    assert m.counter_total("resilience.recovered") > 0


class _AlwaysCorrupt:
    """Injector stub: every decode comes back with one bit flipped."""

    codec_faults = True

    def should_fail_compress(self, name):
        return False

    def maybe_corrupt_decompressed(self, name, out):
        return flip_bit(out, 7)


def test_memo_hit_is_never_taken_for_a_cache_unsafe_codec():
    """A run whose plan has codec faults decodes past the memo: the
    engine's decode helper, with the stub as ``sim.faults``."""
    cache = GLOBAL_CODEC_CACHE
    sim = Simulator()
    engine = CompressionEngine(sim, Device(sim, V100, 0), MPC)
    clean = MpcCompressor(1)
    x = np.linspace(0, 1, 5000, dtype=np.float32)
    comp = clean.compress(x)
    (good,), good_crc = engine._decode(clean, comp.payload, (comp,))
    assert good_crc == payload_crc32(x)
    before = cache.stats()
    sim.faults = _AlwaysCorrupt()
    (bad,), bad_crc = engine._decode(clean, comp.payload, (comp,),
                                     fingerprint=payload_crc32(comp.payload))
    sim.faults = None
    after = cache.stats()
    # decoded for real, hashed for real, nothing looked up or stored
    assert after["decompress_execs"] == before["decompress_execs"] + 1
    assert (after["hits"], after["misses"], after["entries"]) == (
        before["hits"], before["misses"], before["entries"])
    assert bad.tobytes() != x.tobytes()
    assert bad_crc == payload_crc32(bad) != good_crc
    # and the clean entry is untouched by it
    (again,), again_crc = engine._decode(clean, comp.payload, (comp,))
    assert again.tobytes() == x.tobytes() and again_crc == good_crc
    assert cache.stats()["hits"] == after["hits"] + 1


def test_sz_survives_a_fault_plan():
    """The receiver rebuilds SZ from the header's float32 bound; the
    sender's expected-value stamp must be computed with that same
    codec, not hidden behind a shared cache entry (it used to fail
    every integrity check as soon as a fault plan bypassed the cache)."""
    cfg = CompressionConfig(enabled=True, algorithm="sz", threshold=2048)
    x = np.cumsum(np.random.default_rng(0).standard_normal(60000)).astype(np.float32)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(x, 1)
            return None
        return (yield from comm.recv(0))

    GLOBAL_CODEC_CACHE.clear()
    res = Cluster("longhorn", nodes=2, gpus_per_node=1).run(
        rank_fn, config=cfg, max_time=10.0,
        faults=FaultPlan(seed=1, decompress_corrupt_rate=1e-9))
    assert float(np.abs(res.values[1] - x).max()) <= 1.001 * cfg.sz_error_bound
