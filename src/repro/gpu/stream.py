"""CUDA streams.

A stream serializes the operations enqueued on it; operations on
*different* streams may overlap, bounded by the device's SM pool.
MPC-OPT's kernel decomposition launches one compression kernel per
partition on separate streams.
"""

from __future__ import annotations

from repro.sim import Resource

__all__ = ["Stream"]


class Stream:
    """An in-order execution queue on a device."""

    def __init__(self, device, stream_id: int):
        self.device = device
        self.stream_id = stream_id
        self._order = Resource(device.sim, capacity=1)

    def run_kernel(self, duration: float, blocks: int, category: str, label: str = ""):
        """Enqueue a kernel: waits for this stream's previous work, then
        executes on the device (generator subroutine)."""
        req = self._order.acquire()
        if req is not None:
            yield req
        try:
            yield from self.device.run_kernel(
                duration, blocks, category, label, track=f"stream{self.stream_id}"
            )
        finally:
            self._order.release()

    def __repr__(self) -> str:
        return f"<Stream {self.stream_id} on device {self.device.device_id}>"
