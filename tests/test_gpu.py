"""Unit tests for the simulated GPU substrate."""

import numpy as np
import pytest

from repro.errors import (
    BufferPoolExhaustedError,
    ConfigError,
    GpuError,
    OutOfDeviceMemoryError,
)
from repro.gpu import (
    A100,
    RTX5000,
    V100,
    BufferPool,
    DeviceBuffer,
    SizeClassBufferPool,
    device_preset,
)
from repro.utils.units import us


# -- specs -------------------------------------------------------------------

def test_presets():
    assert V100.sm_count == 80
    assert RTX5000.sm_count == 48
    assert A100.sm_count == 108
    assert device_preset("v100") is V100
    assert device_preset("RTX5000") is RTX5000
    with pytest.raises(ConfigError):
        device_preset("h100")


def test_malloc_cost_model():
    """Base + per-byte: ~100us small, ~370us at 32MB (Section IV-A)."""
    assert V100.malloc_time(0) == pytest.approx(us(100))
    assert us(300) < V100.malloc_time(32 << 20) < us(450)


def test_memcpy_20us_floor():
    """Paper: cudaMemcpy of the 4-byte size 'consistently spends
    nearly 20us'."""
    assert V100.memcpy_time(4) == pytest.approx(us(20), rel=0.01)


def test_gdrcopy_1_5us():
    """Paper: GDRCopy reduces the cost 'from 20us to 1-5us'."""
    assert us(1) <= V100.gdrcopy_time(4) <= us(5)
    assert V100.gdrcopy_time(4) < V100.memcpy_time(4) / 4


def test_device_props_vs_attr():
    """Paper Sec V: ~1840us vs ~1us."""
    assert V100.device_props_query == pytest.approx(us(1840))
    assert V100.device_attr_query == pytest.approx(us(1))


def test_invalid_spec():
    import dataclasses

    with pytest.raises(ConfigError):
        dataclasses.replace(V100, sm_count=0)


# -- buffers ---------------------------------------------------------------------

def test_buffer_write_read(device):
    buf = DeviceBuffer(device, 1024)
    arr = np.arange(10, dtype=np.float32)
    buf.write(arr)
    assert np.array_equal(buf.read(), arr)


def test_buffer_overflow_rejected(device):
    buf = DeviceBuffer(device, 16)
    with pytest.raises(GpuError, match="exceeds"):
        buf.write(np.zeros(100, dtype=np.float32))


def test_buffer_read_unwritten(device):
    with pytest.raises(GpuError, match="unwritten"):
        DeviceBuffer(device, 16).read()


def test_buffer_negative_capacity(device):
    with pytest.raises(GpuError):
        DeviceBuffer(device, -1)


# -- device operations -------------------------------------------------------------

def test_malloc_charges_time_and_tracks(device):
    sim = device.sim

    def proc(sim, device):
        buf = yield from device.malloc(1 << 20, "test")
        return buf

    buf = sim.run_process(proc(sim, device))
    assert sim.now == pytest.approx(V100.malloc_time(1 << 20))
    assert device.allocated_bytes == 1 << 20
    assert buf.capacity == 1 << 20


def test_free_returns_memory(device):
    sim = device.sim

    def proc(sim, device):
        buf = yield from device.malloc(1024)
        yield from device.free(buf)

    sim.run_process(proc(sim, device))
    assert device.allocated_bytes == 0


def test_double_free_rejected(device):
    sim = device.sim

    def proc(sim, device):
        buf = yield from device.malloc(1024)
        yield from device.free(buf)
        yield from device.free(buf)

    with pytest.raises(GpuError, match="double free"):
        sim.run_process(proc(sim, device))


def test_oom(device):
    def proc(sim, device):
        yield from device.malloc(device.spec.mem_capacity + 1)

    with pytest.raises(OutOfDeviceMemoryError):
        device.sim.run_process(proc(device.sim, device))


def test_alloc_untimed_is_free(device):
    buf = device.alloc_untimed(4096)
    assert device.sim.now == 0.0
    assert buf.capacity == 4096


def test_memcpy_vs_gdrcopy_times(device):
    sim = device.sim

    def proc(sim, device):
        t0 = sim.now
        yield from device.memcpy_d2h(4)
        t_memcpy = sim.now - t0
        t0 = sim.now
        yield from device.gdrcopy(4)
        return t_memcpy, sim.now - t0

    t_memcpy, t_gdr = sim.run_process(proc(sim, device))
    assert t_memcpy == pytest.approx(us(20), rel=0.01)
    assert t_gdr < us(5)


def test_attr_query_cached(device):
    sim = device.sim

    def proc(sim, device):
        v1 = yield from device.get_device_attribute("sm_count")
        t_first = sim.now
        v2 = yield from device.get_device_attribute("sm_count")
        return v1, v2, t_first, sim.now

    v1, v2, t_first, t_second = sim.run_process(proc(sim, device))
    assert v1 == v2 == 80
    assert t_first == pytest.approx(us(1))
    assert t_second == t_first  # cached read: zero extra time


def test_props_query_expensive(device):
    sim = device.sim

    def proc(sim, device):
        props = yield from device.get_device_properties()
        return props

    props = sim.run_process(proc(sim, device))
    assert sim.now == pytest.approx(us(1840))
    assert props["sm_count"] == 80


def test_kernel_occupies_sms(device):
    sim = device.sim
    done = []

    def kernel(sim, device, blocks, label):
        yield from device.run_kernel(us(100), blocks, "compression_kernel", label)
        done.append((label, sim.now))

    sim.process(kernel(sim, device, 60, "a"))
    sim.process(kernel(sim, device, 60, "b"))  # must queue: 120 > 80 SMs
    sim.run()
    times = dict(done)
    assert times["a"] == pytest.approx(us(100))
    assert times["b"] == pytest.approx(us(200))


def test_concurrent_kernels_fit(device):
    sim = device.sim
    done = []

    def kernel(sim, device, label):
        yield from device.run_kernel(us(100), 20, "k", label)
        done.append(sim.now)

    for i in range(4):  # 4 x 20 = 80 SMs: all concurrent
        sim.process(kernel(sim, device, f"k{i}"))
    sim.run()
    assert all(t == pytest.approx(us(100)) for t in done)


def test_kernel_too_many_blocks(device):
    def proc(sim, device):
        yield from device.run_kernel(us(1), 81, "k")

    with pytest.raises(GpuError):
        device.sim.run_process(proc(device.sim, device))


def test_kernel_traced(device):
    sim = device.sim

    def proc(sim, device):
        yield from device.run_kernel(us(50), 10, "compression_kernel", "t")

    sim.run_process(proc(sim, device))
    assert sim.tracer.breakdown().get("compression_kernel", 0.0) == pytest.approx(us(50))


# -- streams ---------------------------------------------------------------------

def test_stream_serializes(device):
    sim = device.sim
    stream = device.new_stream()
    ends = []

    def enqueue(sim, stream, label):
        yield from stream.run_kernel(us(10), 5, "k", label)
        ends.append(sim.now)

    sim.process(enqueue(sim, stream, "a"))
    sim.process(enqueue(sim, stream, "b"))
    sim.run()
    assert ends == [pytest.approx(us(10)), pytest.approx(us(20))]


def test_streams_overlap(device):
    sim = device.sim
    s1, s2 = device.new_stream(), device.new_stream()
    ends = []

    def enqueue(sim, stream):
        yield from stream.run_kernel(us(10), 5, "k")
        ends.append(sim.now)

    sim.process(enqueue(sim, s1))
    sim.process(enqueue(sim, s2))
    sim.run()
    assert all(t == pytest.approx(us(10)) for t in ends)


def test_kernel_launch_on_an_idle_device_is_one_event(device):
    """A free stream and free SMs are taken on the spot: the launch
    schedules its duration and nothing else."""
    sim = device.sim
    sim.process(device.new_stream().run_kernel(us(10), 5, "k"))
    sim.run()
    assert sim.now == pytest.approx(us(10))
    assert sim.event_count == 1 + 1  # the process's start, the kernel


def test_stream_ids_unique(device):
    assert device.new_stream().stream_id != device.new_stream().stream_id


# -- pools ---------------------------------------------------------------------

def test_pool_preallocation_untimed(device):
    pool = BufferPool(device, 1 << 20, count=4)
    assert device.sim.now == 0.0
    assert pool.total == 4 and pool.free_count == 4


def test_pool_acquire_release_cheap(device):
    sim = device.sim
    pool = BufferPool(device, 1 << 20, count=2)

    def proc(sim, pool):
        buf = yield from pool.acquire(1000, "x")
        t_acq = sim.now
        yield from pool.release(buf)
        return t_acq

    t_acq = sim.run_process(proc(sim, pool))
    assert t_acq < us(2)  # vastly cheaper than the ~100us cudaMalloc


def test_pool_grows_on_demand(device):
    sim = device.sim
    pool = BufferPool(device, 1024, count=0)

    def proc(sim, pool):
        buf = yield from pool.acquire(512)
        return buf

    sim.run_process(proc(sim, pool))
    assert pool.total == 1
    assert sim.now >= V100.malloc_time(1024) * 0.99  # grow paid cudaMalloc


def test_pool_request_too_large(device):
    pool = BufferPool(device, 1024, count=1)

    def proc(sim, pool):
        yield from pool.acquire(2048)

    with pytest.raises(BufferPoolExhaustedError):
        device.sim.run_process(proc(device.sim, pool))


def test_pool_reuse_cycle(device):
    sim = device.sim
    pool = BufferPool(device, 1024, count=1)

    def proc(sim, pool):
        for _ in range(5):
            buf = yield from pool.acquire(100)
            yield from pool.release(buf)

    sim.run_process(proc(sim, pool))
    assert pool.total == 1  # same buffer recycled


def test_pool_concurrent_acquires_no_double_grant(device):
    """Regression: two processes acquiring across the bookkeeping
    timeout must get different buffers."""
    sim = device.sim
    pool = BufferPool(device, 1024, count=2)
    got = []

    def proc(sim, pool):
        buf = yield from pool.acquire(100)
        got.append(buf)

    sim.process(proc(sim, pool))
    sim.process(proc(sim, pool))
    sim.run()
    assert got[0] is not got[1]


def test_pool_foreign_release_rejected(device):
    pool = BufferPool(device, 1024, count=1)
    alien = device.alloc_untimed(1024)

    def proc(sim, pool, alien):
        yield from pool.release(alien)

    with pytest.raises(GpuError):
        device.sim.run_process(proc(device.sim, pool, alien))


# -- size-class pool ------------------------------------------------------------

def test_size_class_routing(device):
    sim = device.sim
    pool = SizeClassBufferPool(device, min_bytes=1 << 10, max_bytes=1 << 14,
                               count_per_class=1)
    assert pool.class_sizes == [1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14]

    def proc(sim, pool):
        small = yield from pool.acquire(100)
        big = yield from pool.acquire(5000)
        yield from pool.release(small)
        yield from pool.release(big)
        return small.capacity, big.capacity

    small_cap, big_cap = sim.run_process(proc(sim, pool))
    assert small_cap == 1 << 10
    assert big_cap == 1 << 13


def test_size_class_too_large(device):
    pool = SizeClassBufferPool(device, min_bytes=1 << 10, max_bytes=1 << 12)

    def proc(sim, pool):
        yield from pool.acquire(1 << 20)

    with pytest.raises(BufferPoolExhaustedError):
        device.sim.run_process(proc(device.sim, pool))


def test_size_class_bad_bounds(device):
    with pytest.raises(GpuError):
        SizeClassBufferPool(device, min_bytes=1 << 14, max_bytes=1 << 10)
