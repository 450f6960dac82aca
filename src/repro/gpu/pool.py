"""Pre-allocated device buffer pools.

The first MPC-OPT optimization (Section IV-B.1): GPU buffers for the
compressed payload and for MPC's ``d_off`` synchronization array are
allocated once at initialization (``MPI_Init``) and re-used, removing
``cudaMalloc`` from the critical communication path.

:class:`BufferPool`
    Fixed buffer size, as in the paper ("currently, the buffer size is
    fixed in the memory pool"), growing on demand.

:class:`SizeClassBufferPool`
    The paper's suggested future enhancement — power-of-two size
    classes so small messages do not pin huge buffers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.analysis.metrics import MetricsRegistry
from repro.errors import BufferPoolExhaustedError, ConfigError, GpuError
from repro.gpu.buffer import DeviceBuffer

__all__ = ["BufferPool", "SizeClassBufferPool"]

#: bookkeeping cost of taking/returning a pooled buffer (seconds) —
#: a free-list pop, effectively negligible next to cudaMalloc
_POOL_OP_TIME = 0.5e-6


class BufferPool:
    """Fixed-size pre-allocated pool.

    Parameters
    ----------
    device:
        Owning :class:`~repro.gpu.device.Device`.
    buffer_bytes:
        Capacity of each pooled buffer; requests larger than this fail.
    count:
        Number of buffers pre-allocated at construction (init time, so
        untimed).  An empty pool allocates a fresh buffer on demand —
        paying ``cudaMalloc`` once, then keeping the buffer ("can be
        dynamically increased ... on demand").
    """

    def __init__(self, device, buffer_bytes: int, count: int = 4):
        if count < 0:
            raise GpuError(f"pool count must be >= 0, got {count}")
        if buffer_bytes <= 0:
            raise ConfigError(
                f"pool buffer size must be positive, got {buffer_bytes}")
        self.device = device
        self.buffer_bytes = int(buffer_bytes)
        self._free: Deque[DeviceBuffer] = deque()
        self._total = 0
        #: this pool's metric series keys
        self._k_hit, self._k_miss = (
            MetricsRegistry.key(name, device=device.device_id)
            for name in ("pool.hit", "pool.miss"))
        for _ in range(count):
            self._free.append(self._make())

    def _make(self) -> DeviceBuffer:
        buf = self.device.alloc_untimed(self.buffer_bytes, label="pool")
        buf.pooled = True
        self._total += 1
        asan = self.device.sim.asan
        if asan is not None:
            # alloc_untimed registered the buffer as live; it starts
            # life sitting in the free list.
            asan.on_pool_release(buf)
        return buf

    @property
    def total(self) -> int:
        """Total buffers owned by the pool (free + checked out)."""
        return self._total

    @property
    def free_count(self) -> int:
        return len(self._free)

    def acquire(self, nbytes: int, label: str = ""):
        """Take a buffer able to hold ``nbytes`` (generator subroutine)."""
        if nbytes > self.buffer_bytes:
            raise BufferPoolExhaustedError(
                f"request of {nbytes}B exceeds pool buffer size {self.buffer_bytes}B"
            )
        faults = self.device.sim.faults
        if faults is not None and faults.should_fail_pool(
                self.device.device_id, nbytes):
            raise BufferPoolExhaustedError(
                f"injected transient pool exhaustion on device "
                f"{self.device.device_id} ({nbytes}B request)"
            )
        tracer = self.device.sim.tracer
        asan = self.device.sim.asan
        if self._free:
            # Claim before yielding: a concurrent acquire across the
            # bookkeeping timeout must not steal the same buffer.
            buf = self._free.popleft()
            if asan is not None:
                asan.on_pool_acquire(buf, label)
            t0 = self.device.sim.now
            yield self.device.sim.timeout(_POOL_OP_TIME)
            buf.label = label
            if tracer is not None:
                tracer.span(t0, self.device.sim.now, "pool", "hit",
                            rank=self.device.device_id, track="gpu",
                            nbytes=nbytes, capacity=self.buffer_bytes)
                tracer.metrics.inc(self._k_hit)
            return buf
        # Grow: one cudaMalloc now, reused forever after.
        if tracer is not None:
            tracer.metrics.inc(self._k_miss)
        buf = yield from self.device.malloc(self.buffer_bytes, label=label)
        buf.pooled = True
        self._total += 1
        if asan is not None:
            # malloc registered it live; record pool adoption so a
            # later release/acquire cycle is tracked.
            asan.on_pool_acquire(buf, label)
        return buf

    def release(self, buf: DeviceBuffer):
        """Return a buffer to the pool (generator subroutine)."""
        if not buf.pooled or buf.device is not self.device:
            raise GpuError("releasing a buffer that does not belong to this pool")
        asan = self.device.sim.asan
        if asan is not None:
            asan.on_pool_release(buf)
        t0 = self.device.sim.now
        yield self.device.sim.timeout(_POOL_OP_TIME)
        buf.clear()
        self._free.append(buf)
        tracer = self.device.sim.tracer
        if tracer is not None:
            tracer.span(t0, self.device.sim.now, "pool", "release",
                        rank=self.device.device_id, track="gpu",
                        capacity=self.buffer_bytes)


class SizeClassBufferPool:
    """Power-of-two size-class pools (the paper's proposed extension).

    ``acquire(nbytes)`` routes to the smallest class that fits, so a
    64 KiB message no longer checks out a 32 MiB buffer.
    """

    def __init__(self, device, min_bytes: int = 1 << 16, max_bytes: int = 1 << 25,
                 count_per_class: int = 2):
        if min_bytes <= 0:
            raise ConfigError(f"min_bytes must be positive, got {min_bytes}")
        if min_bytes > max_bytes:
            raise GpuError("min_bytes must be <= max_bytes")
        self.device = device
        self._classes: list[BufferPool] = []
        size = 1
        while size < min_bytes:
            size <<= 1
        while size <= max_bytes:
            self._classes.append(BufferPool(device, size, count_per_class))
            size <<= 1

    @property
    def class_sizes(self) -> list[int]:
        return [p.buffer_bytes for p in self._classes]

    def _pool_for(self, nbytes: int) -> BufferPool:
        for pool in self._classes:
            if pool.buffer_bytes >= nbytes:
                return pool
        raise BufferPoolExhaustedError(
            f"request of {nbytes}B exceeds largest size class "
            f"{self._classes[-1].buffer_bytes}B"
        )

    def acquire(self, nbytes: int, label: str = ""):
        buf = yield from self._pool_for(nbytes).acquire(nbytes, label)
        return buf

    def release(self, buf: DeviceBuffer):
        for pool in self._classes:
            if pool.buffer_bytes == buf.capacity:
                yield from pool.release(buf)
                return
        raise GpuError("buffer does not match any size class")
