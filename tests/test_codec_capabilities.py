"""Codec capabilities drive the one send-plan builder (ISSUE 16).

``CompressionEngine.sender_prepare`` and the receiver read what a codec
costs around its kernel from the capabilities its class declares —
never from its name — so a codec is admitted through
``repro.compression.register`` alone, every transport codec works under
every config flag, and a fault plane cannot hide a capability.
"""

import json
import zlib

import numpy as np
import pytest

from repro.compression import (
    CompressedData, Compressor, get_compressor, perfmodel, register, registry,
)
from repro.core import CompressionConfig, CompressionEngine, CompressionHeader
from repro.faults import FaultInjector, FaultPlan
from repro.gpu.device import Device
from repro.gpu.spec import V100
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.sim import Simulator, Tracer
from repro.utils.units import KiB, MiB

from tests.codec_fixture_defs import MANIFEST_PATH

TRANSPORT = ("mpc", "zfp", "sz", "gfc", "fpc", "null")
LOSSLESS = ("mpc", "gfc", "fpc", "null")


def _payload(algo, nbytes, seed=0):
    data = make_payload("wave", nbytes, seed=seed)
    # GFC and FPC are double-precision designs (Table I).
    return data.astype(np.float64) if algo in ("gfc", "fpc") else data


def _sends(result) -> dict:
    """``mpi.sends`` of a run, by protocol."""
    return {dict(labels)["protocol"]: int(v)
            for (name, labels), v in result.tracer.metrics._counters.items()
            if name == "mpi.sends"}


def _exchange(comm, data):
    if comm.rank == 0:
        yield from comm.send(data, 1)
        return None
    got = yield from comm.recv(0)
    return got


def _prepare(config, data, stream=False, faults=None):
    """``(plan, spans)`` of one bare ``sender_prepare``, under the fault
    plan ``faults`` when given."""
    sim = Simulator()
    tracer = Tracer(sim)
    if faults is not None:
        FaultInjector(sim, faults)
    engine = CompressionEngine(sim, Device(sim, V100, 0), config)
    plan = sim.run_process(engine.sender_prepare(data, stream=stream))
    return plan, [(r.category, r.label) for r in tracer.records]


# -- bugfix: pipeline=True with a codec that cannot stream -------------------

@pytest.mark.parametrize("algo", TRANSPORT)
def test_every_transport_codec_delivers_under_pipeline(algo):
    """``pipeline=True`` used to encode sz/gfc/fpc/null messages with
    ZFP under the other codec's header, so every message failed."""
    cfg = CompressionConfig(enabled=True, algorithm=algo, pipeline=True,
                            partitions=4)
    data = _payload(algo, 1 * MiB)
    res = Cluster("longhorn", 2, 1).run(_exchange, config=cfg, args=(data,))
    got = res.values[1]
    assert got.dtype == data.dtype and got.shape == data.shape
    if algo in LOSSLESS:
        assert np.array_equal(got.view(np.uint8), data.view(np.uint8))
    elif algo == "sz":
        assert np.abs(got - data).max() <= cfg.sz_error_bound * (1 + 1e-6)
    else:
        codec = get_compressor("zfp", rate=cfg.zfp_rate)
        assert np.abs(got - data).max() <= codec.max_abs_error_bound(data)
    streams = get_compressor(algo, **cfg.codec_params()).streamable
    assert streams == (algo in ("mpc", "zfp"))
    assert ("rndv_pipelined" in _sends(res)) == streams


# -- registry-only admission --------------------------------------------------

class ToyCompressor(Compressor):
    """Byte-plane shuffle + zlib: lossless, data-dependent size."""

    name = "toy"
    lossless = True
    header_field = "level"

    def __init__(self, level: int = 1):
        self.level = int(level)

    def compress(self, data):
        data = self._check_input(data)
        planes = data.view(np.uint8).reshape(-1, data.itemsize).T
        packed = zlib.compress(np.ascontiguousarray(planes).tobytes(), self.level)
        return CompressedData(self.name, np.frombuffer(packed, dtype=np.uint8),
                              data.size, data.dtype, {"level": self.level})

    def decompress(self, comp):
        self._check_payload(comp)
        planes = np.frombuffer(zlib.decompress(comp.payload.tobytes()),
                               dtype=np.uint8).reshape(comp.dtype.itemsize, -1)
        return np.ascontiguousarray(planes.T).reshape(-1).view(comp.dtype).copy()


class ToyStreamCompressor(ToyCompressor):
    name = "toy-stream"
    streamable = True
    needs_offsets = True


@pytest.fixture
def toy_codecs():
    """Both toys admitted as transport codecs for one test — by
    ``register`` alone."""
    model = perfmodel.KernelCostModel("toy", compress_tp=30e9, decompress_tp=40e9)
    toys = {"toy": (ToyCompressor, 200), "toy-stream": (ToyStreamCompressor, 201)}
    for name, (cls, code) in toys.items():
        register(name, cls, wire_code=code, cost_model=model)
    yield tuple(toys)
    for name, (_, code) in toys.items():
        del registry._REGISTRY[name], registry.WIRE_CODES[name]
        del registry.WIRE_NAMES[code], perfmodel.MODELS[name]


def test_registered_codec_runs_every_path(toy_codecs):
    data = make_payload("wave", 1 * MiB, seed=3)
    raw = data.view(np.uint8)
    for name in toy_codecs:
        cfg = CompressionConfig(enabled=True, algorithm=name)
        streams = name == "toy-stream"

        # Rendezvous point-to-point, whole-message plan.
        res = Cluster("longhorn", 2, 1).run(_exchange, config=cfg, args=(data,))
        assert np.array_equal(res.values[1].view(np.uint8), raw)
        assert _sends(res) == {"rndv": 1}

        # pipeline=True streams only the codec that declares it.
        piped = cfg.with_(pipeline=True, partitions=4)
        res = Cluster("longhorn", 2, 1).run(_exchange, config=piped, args=(data,))
        assert np.array_equal(res.values[1].view(np.uint8), raw)
        assert _sends(res) == {"rndv_pipelined" if streams else "rndv": 1}

        # Keep-compressed allgather: images relayed, decoded at consumers.
        def gather(comm):
            mine = make_payload("wave", 256 * KiB, seed=comm.rank)
            blocks = yield from comm.allgather(mine)
            return [zlib.crc32(np.ascontiguousarray(b).view(np.uint8))
                    for b in blocks]

        res = Cluster("longhorn", 2, 2).run(gather, config=cfg)
        want = [zlib.crc32(make_payload("wave", 256 * KiB, seed=r).view(np.uint8))
                for r in range(4)]
        assert res.values == [want] * 4
        assert _sends(res).get("rndv_wire", 0) > 0

        # The capabilities are what the engine pays for: d_off on both
        # ends only for the codec that needs it, and the header names
        # the codec by its registered wire code.
        plan, spans = _prepare(cfg, data)
        assert plan.compressed and len(plan.resources) == (2 if streams else 1)
        assert CompressionHeader.unpack(plan.header.pack()) == plan.header
        assert plan.header.pack()[2] == registry.WIRE_CODES[name]
        assert plan.header.codec_params() == {"level": 1}
        assert ("compression_kernel", name) in spans

    with pytest.raises(Exception, match="taken"):
        register("toy-2", ToyCompressor, wire_code=1,
                 cost_model=perfmodel.MPC_V100)


def test_unregistered_algorithm_is_rejected():
    with pytest.raises(Exception, match="unknown algorithm 'toy'"):
        CompressionConfig(enabled=True, algorithm="toy")
    # Registered, but without a wire code: not a transport codec.
    with pytest.raises(Exception, match="unknown algorithm 'zfp2d'"):
        CompressionConfig(enabled=True, algorithm="zfp2d")


# -- capability consistency over the registry ---------------------------------

def _manifest_cases():
    with open(MANIFEST_PATH) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("algo", TRANSPORT)
def test_capabilities_are_consistent(algo, rng):
    assert tuple(sorted(registry.WIRE_CODES)) == tuple(sorted(TRANSPORT))
    cfg = CompressionConfig(enabled=True, algorithm=algo, mpc_dimensionality=3,
                            zfp_rate=11, sz_error_bound=2.5e-4)
    codec = get_compressor(algo, **cfg.codec_params())
    cls = registry.codec_class(algo)

    # The header parameter rebuilds an equal codec on the receiver.
    param = codec.header_param()
    assert 0 <= param <= 0xFFFFFFFF
    rebuilt = get_compressor(algo, **cls.params_from_header(param))
    assert rebuilt.cache_params() == codec.cache_params()
    header = CompressionHeader.for_message(algo, np.float64, 64, param, (8,))
    assert CompressionHeader.unpack(header.pack()).codec_params() \
        == cls.params_from_header(param)

    # A declared compressed size is exact (no size copy, exact buffer);
    # an undeclared one fits under the staging bound.
    dtype = np.float64 if algo in ("gfc", "fpc") else np.float32
    for data in (np.cumsum(rng.standard_normal(4099)).astype(dtype),
                 rng.standard_normal(4099).astype(dtype)):
        comp = codec.compress(data)
        expected = codec.expected_compressed_bytes(data.size, data.itemsize)
        if expected is not None:
            assert comp.nbytes == expected
        assert comp.nbytes <= codec.staging_bytes(data.nbytes)

    # Streaming splits a message into independent partitions and a
    # decomposed kernel combines them: both need partition decode.
    assert not codec.multi_kernel or codec.streamable


def test_staging_bound_covers_the_fixture_streams():
    """No committed stream of any codec outgrows the device buffer its
    codec would be given."""
    seen = set()
    for case in _manifest_cases():
        codec = get_compressor(case["codec"], **case["params"])
        nbytes = int(np.prod(case["n"])) * np.dtype(case["dtype"]).itemsize
        assert case["payload_bytes"] <= codec.staging_bytes(nbytes), case["desc"]
        seen.add(case["codec"])
    assert set(registry.WIRE_CODES) - {"null"} <= seen


# -- capabilities are the codec's own under a codec-fault plan -----------------

@pytest.mark.parametrize("algo,offsets,setup", [("mpc", True, False),
                                                ("zfp", False, True)])
def test_capabilities_survive_the_fault_wrapper(algo, offsets, setup):
    """A codec-fault plan used to swap the codec for a proxy that
    inherited the base-class capability defaults; the engine now holds
    the registered class whatever the plan.  Under a compress-fail plan
    the sends that do compress still stream, take ``d_off`` (mpc) and
    do host set-up (zfp)."""
    cfg = CompressionConfig(enabled=True, algorithm=algo, zfp_rate=8,
                            pipeline=True, partitions=4)
    data = make_payload("wave", 1 * MiB, seed=1)

    def burst(comm):
        got = []
        for i in range(6):
            if comm.rank == 0:
                yield from comm.send(data, 1, tag=i)
            else:
                got.append((yield from comm.recv(0, tag=i)))
        return got

    res = Cluster("longhorn", 2, 1).run(
        burst, config=cfg, faults=FaultPlan(seed=5, compress_fail_rate=0.15))
    sends = _sends(res)
    assert sends.get("rndv_pipelined", 0) > 0 and sum(sends.values()) == 6
    for got in res.values[1]:
        if algo == "mpc":
            assert np.array_equal(got.view(np.uint8), data.view(np.uint8))
        else:
            bound = get_compressor("zfp", rate=8).max_abs_error_bound(data)
            assert np.abs(got - data).max() <= bound
    spans = res.tracer.records
    # The compressed-size copy is paid per streamed MPC partition and
    # never by fixed-rate ZFP; host set-up is ZFP's alone.
    assert any(r.label == "compressed_size" for r in spans) == offsets
    assert any(r.category == "zfp_stream_field" for r in spans) == setup

    # And directly: a plan built under a codec-fault injector that never
    # fires (its window opens long after the send) holds the same
    # resources, header parameter and CRC as a clean one's.
    clean, _ = _prepare(cfg, data, stream=True)
    faulted, _ = _prepare(cfg, data, stream=True, faults=FaultPlan(
        compress_fail_rate=0.5, decompress_corrupt_rate=0.5, active_after=1.0))
    assert faulted.header == clean.header and faulted.header.pipelined
    assert len(faulted.resources) == len(clean.resources) == (2 if offsets else 1)
    assert faulted.crc == clean.crc
