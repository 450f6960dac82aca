"""The simulated GPU device.

All methods that consume time are generator *subroutines*: call them
with ``yield from`` inside a simulation process.  Each charges the
modelled duration on the simulator clock and records a tracer span so
benchmarks can produce latency breakdowns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GpuError, OutOfDeviceMemoryError
from repro.gpu.buffer import DeviceBuffer
from repro.gpu.spec import DeviceSpec
from repro.sim import Resource, Simulator

__all__ = ["Device"]


class Device:
    """One GPU bound to a simulator.

    Parameters
    ----------
    sim:
        The shared simulator/clock.
    spec:
        Static device description (:class:`~repro.gpu.spec.DeviceSpec`).
    device_id:
        Identifier within the cluster (also used by the topology).
    """

    def __init__(self, sim: Simulator, spec: DeviceSpec, device_id: int = 0):
        self.sim = sim
        self.spec = spec
        self.device_id = device_id
        self.sms = Resource(sim, spec.sm_count)
        self._allocated = 0
        self._attr_cache: dict[str, int] = {}
        self._next_stream = 0

    # -- bookkeeping -----------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    def _trace(self, t0: float, category: str, label: str = "",
               track: str = "gpu", **meta) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.span(t0, self.sim.now, category, label, rank=self.device_id,
                        track=track, device=self.device_id, **meta)

    # -- memory management ------------------------------------------------
    def malloc(self, nbytes: int, label: str = ""):
        """cudaMalloc: returns a fresh :class:`DeviceBuffer` after
        charging the allocation cost (generator subroutine)."""
        if self._allocated + nbytes > self.spec.mem_capacity:
            raise OutOfDeviceMemoryError(
                f"device {self.device_id}: allocating {nbytes}B would exceed "
                f"capacity {self.spec.mem_capacity}B ({self._allocated}B in use)"
            )
        faults = self.sim.faults
        if faults is not None and faults.should_fail_malloc(self.device_id, nbytes):
            raise OutOfDeviceMemoryError(
                f"device {self.device_id}: injected transient cudaMalloc "
                f"failure ({nbytes}B request)"
            )
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.malloc_time(nbytes))
        self._allocated += nbytes
        self._trace(t0, "malloc", label, nbytes=nbytes)
        buf = DeviceBuffer(self, nbytes, pooled=False, label=label)
        if self.sim.asan is not None:
            self.sim.asan.on_alloc(buf)
        return buf

    def free(self, buf: DeviceBuffer):
        """cudaFree (generator subroutine)."""
        if buf.device is not self:
            raise GpuError("freeing a buffer owned by another device")
        if buf.pooled:
            raise GpuError("pooled buffers must be released to their pool, not freed")
        if self.sim.asan is not None:
            self.sim.asan.on_free(buf)
        if buf.freed:
            raise GpuError("double free")
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.free_base)
        self._allocated -= buf.capacity
        buf._freed = True
        self._trace(t0, "free", buf.label)

    def alloc_untimed(self, nbytes: int, label: str = "") -> DeviceBuffer:
        """Allocate without charging time — used at initialization
        (MPI_Init) where the paper's buffer pools are built off the
        critical path."""
        if self._allocated + nbytes > self.spec.mem_capacity:
            raise OutOfDeviceMemoryError(
                f"device {self.device_id}: init-time allocation of {nbytes}B exceeds capacity"
            )
        self._allocated += nbytes
        buf = DeviceBuffer(self, nbytes, pooled=False, label=label)
        if self.sim.asan is not None:
            self.sim.asan.on_alloc(buf)
        return buf

    # -- copies -------------------------------------------------------------
    def memcpy_d2h(self, nbytes: int, label: str = "memcpy_d2h"):
        """cudaMemcpy device->host: the expensive path MPC's naive
        integration uses to fetch the 4-byte compressed size."""
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.memcpy_time(nbytes))
        self._trace(t0, "data_copy", label, nbytes=nbytes)

    def gdrcopy(self, nbytes: int, label: str = "gdrcopy"):
        """Low-latency mapped copy (GDRCopy), the optimized replacement
        for small cudaMemcpy transfers."""
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.gdrcopy_time(nbytes))
        self._trace(t0, "data_copy", label, nbytes=nbytes)

    def memcpy_d2d(self, nbytes: int, label: str = "combine"):
        """Device-to-device copy at memory bandwidth (used by MPC-OPT's
        partition combine step)."""
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.d2d_time(nbytes))
        self._trace(t0, "combine", label, nbytes=nbytes)

    # -- driver queries --------------------------------------------------
    def get_device_properties(self):
        """cudaGetDeviceProperties — the ~1840us call naive ZFP issues
        per message (generator subroutine)."""
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.device_props_query)
        self._trace(t0, "get_max_grid_dims", "cudaGetDeviceProperties")
        return {"sm_count": self.spec.sm_count, "max_grid_dim_x": 2147483647}

    def get_device_attribute(self, attr: str, cached: bool = True):
        """cudaDeviceGetAttribute with the ZFP-OPT caching: the first
        query costs ~1us, subsequent cached reads are free."""
        if cached and attr in self._attr_cache:
            return self._attr_cache[attr]
            yield  # pragma: no cover - makes this a generator
        t0 = self.sim.now
        yield self.sim.timeout(self.spec.device_attr_query)
        self._trace(t0, "get_max_grid_dims", f"cudaDeviceGetAttribute({attr})")
        value = {"sm_count": self.spec.sm_count, "max_grid_dim_x": 2147483647}.get(attr, 0)
        if cached:
            self._attr_cache[attr] = value
        return value

    # -- kernels -----------------------------------------------------------
    def run_kernel(self, duration: float, blocks: int, category: str, label: str = "",
                   track: Optional[str] = None):
        """Execute a kernel of known ``duration`` using ``blocks``
        thread blocks (generator subroutine).

        The launch first acquires ``blocks`` SM tokens; concurrent
        kernels on different streams therefore run in parallel when the
        device has capacity and queue otherwise — the mechanism behind
        MPC-OPT's multi-stream kernel decomposition.

        ``track`` names the trace lane (streams pass ``stream<k>`` so
        each CUDA stream renders as its own track).
        """
        if blocks < 1 or blocks > self.spec.sm_count:
            raise GpuError(
                f"kernel requested {blocks} blocks; device has {self.spec.sm_count} SMs"
            )
        req = self.sms.acquire(blocks)
        if req is not None:
            yield req
        t0 = self.sim.now
        try:
            yield self.sim.timeout(duration)
        finally:
            self.sms.release(blocks)
        self._trace(t0, category, label, track=track or "gpu", blocks=blocks)

    def new_stream(self):
        """Create a CUDA stream on this device."""
        from repro.gpu.stream import Stream

        s = Stream(self, self._next_stream)
        self._next_stream += 1
        return s
