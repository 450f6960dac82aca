"""Buffer sanitizer (repro.check.asan) tests, including the pool
edge-case satellite: double release, use-after-free and leaks each
raise a distinct error type."""

import numpy as np
import pytest

from repro.analysis.bench import named_config
from repro.check.asan import BufferSanitizer
from repro.check.fixtures import (run_double_release, run_leak,
                                  run_use_after_free)
from repro.errors import (BufferLeakError, BufferSanitizerError,
                          DoubleReleaseError, GpuError, UseAfterFreeError)
from repro.gpu.device import Device
from repro.gpu.pool import BufferPool, SizeClassBufferPool
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload
from repro.sim.engine import Simulator

from tests import pins


def make_device(asan=True):
    sim = Simulator()
    sim.asan = BufferSanitizer() if asan else None
    return Device(sim, machine_preset("longhorn").device, device_id=0)


# -- the three distinct failure modes ---------------------------------------

def test_double_release_raises_distinct_error():
    with pytest.raises(DoubleReleaseError):
        run_double_release()


def test_use_after_free_raises_distinct_error():
    with pytest.raises(UseAfterFreeError):
        run_use_after_free()


def test_leak_raises_distinct_error():
    with pytest.raises(BufferLeakError):
        run_leak()


def test_all_are_buffer_sanitizer_errors():
    for exc in (DoubleReleaseError, UseAfterFreeError, BufferLeakError):
        assert issubclass(exc, BufferSanitizerError)
        assert issubclass(exc, GpuError)


# -- lifecycle details -------------------------------------------------------

def test_clean_pool_cycle_is_clean():
    device = make_device()
    pool = BufferPool(device, 2048, count=2)

    def proc():
        a = yield from pool.acquire(100, label="a")
        b = yield from pool.acquire(200, label="b")
        a.write(np.zeros(4, dtype=np.float32))
        a.read()
        yield from pool.release(a)
        yield from pool.release(b)

    device.sim.run_process(proc())
    device.sim.asan.assert_clean()
    stats = device.sim.asan.stats()
    assert stats["buffers"] == 2
    assert stats["states"] == {"pool_free": 2}


def test_double_cuda_free_detected_before_generic_error():
    device = make_device()

    def proc():
        buf = yield from device.malloc(512, label="x")
        yield from device.free(buf)
        yield from device.free(buf)

    with pytest.raises(DoubleReleaseError):
        device.sim.run_process(proc())


def test_write_after_cuda_free_detected():
    device = make_device()

    def proc():
        buf = yield from device.malloc(512, label="x")
        yield from device.free(buf)
        buf.write(np.zeros(2, dtype=np.float32))

    with pytest.raises(UseAfterFreeError):
        device.sim.run_process(proc())


def test_release_to_size_class_pool_tracked():
    device = make_device()
    pool = SizeClassBufferPool(device, min_bytes=1 << 10, max_bytes=1 << 12,
                               count_per_class=1)

    def proc():
        buf = yield from pool.acquire(1 << 10, label="x")
        yield from pool.release(buf)
        yield from pool.release(buf)

    with pytest.raises(DoubleReleaseError):
        device.sim.run_process(proc())


def test_disabled_sanitizer_keeps_legacy_behavior():
    device = make_device(asan=False)

    def proc():
        buf = yield from device.malloc(512, label="x")
        yield from device.free(buf)
        yield from device.free(buf)

    with pytest.raises(GpuError, match="double free"):
        device.sim.run_process(proc())


# -- enablement plumbing -----------------------------------------------------

def _pingpong(comm, data):
    if comm.rank == 0:
        yield from comm.send(data, dest=1, tag=1)
        got = yield from comm.recv(source=1, tag=2)
    else:
        got = yield from comm.recv(source=0, tag=1)
        yield from comm.send(got, dest=0, tag=2)
    return got.nbytes


@pytest.mark.parametrize("config_name", ["mpc-opt", "zfp8-pipe"])
def test_cluster_run_clean_under_asan(config_name):
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload("omb", 1 << 20, seed=1)
    res = cluster.run(_pingpong, config=named_config(config_name),
                      args=(data,), asan=True)
    assert res.asan is not None
    assert res.asan.leaks() == []
    assert res.asan.stats()["events"] > 0


def test_cluster_run_respects_scope_default():
    """The run's own ``asan`` argument decides; it defaults to off."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload("omb", 1 << 20, seed=1)
    res = cluster.run(_pingpong, config=named_config("mpc-opt"),
                      args=(data,), asan=True)
    assert res.asan is not None
    res2 = cluster.run(_pingpong, config=named_config("mpc-opt"),
                       args=(data,))
    assert res2.asan is None


def test_sanitized_run_is_bit_identical():
    """asan is pure bookkeeping: traces match span for span."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    data = make_payload("omb", 1 << 20, seed=1)
    plain, checked = (pins.run(cluster, _pingpong, args=(data,), asan=asan,
                               config=named_config("zfp8-pipe"))
                      for asan in (False, True))
    assert pins.digests(plain) == pins.digests(checked)
