"""GPU kernel cost models for the compression codecs.

The data path in this package is real (numpy) but the *time* a CUDA
kernel would take on the modelled GPU comes from here.  Throughputs are
calibrated to the paper's Table III (V100 measurements):

========  ==============  ==============
codec     compress        decompress
========  ==============  ==============
MPC       ~205 Gb/s       ~185 Gb/s
ZFP       ~450 Gb/s       ~730 Gb/s
========  ==============  ==============

(Gb/s of *uncompressed input* processed.)  Scaling across devices is by
SM count relative to the 80-SM V100.

Two effects central to the paper's Section IV are modelled explicitly:

* **Occupancy saturation** — effective throughput with ``b`` thread
  blocks is ``peak * b / (b + b_half)``; with ``b_half`` ~ 1/10 of the
  device, half the SMs already reach ~90% of peak — the observation
  ("runtime of half the SMs is roughly the same as full GPU") that
  motivates kernel decomposition.
* **Intra-kernel synchronization** — MPC's busy-wait barrier between
  thread blocks costs time linear in the number of blocks in the
  kernel; many small kernels beat one full-device kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.units import Gbps, us

__all__ = ["KernelCostModel", "kernel_cost_model_for", "MPC_V100", "ZFP_V100", "NULL_MODEL"]

_V100_SMS = 80


@dataclass(frozen=True)
class KernelCostModel:
    """Cost model for one codec on one device family.

    Attributes
    ----------
    compress_tp:
        Peak compression throughput, bytes of input per second, at full
        device occupancy on the reference (V100) part.
    decompress_tp:
        Peak decompression throughput (bytes of restored output/s).
    launch_overhead:
        Fixed CUDA kernel launch latency (seconds).
    sync_per_block:
        Per-thread-block busy-wait synchronization cost (seconds);
        non-zero only for MPC-style inter-block barriers.
    saturation_blocks:
        ``b_half`` of the occupancy curve, in thread blocks, on the
        reference part.
    """

    name: str
    compress_tp: float
    decompress_tp: float
    launch_overhead: float = us(5.0)
    sync_per_block: float = 0.0
    saturation_blocks: float = 8.0

    def _scale(self, sm_count: int) -> float:
        """Device capability relative to the 80-SM V100 reference."""
        return sm_count / _V100_SMS

    def occupancy(self, blocks: int, sm_count: int) -> float:
        """Fraction of device-peak throughput at ``blocks`` blocks."""
        if blocks < 1:
            raise ConfigError(f"kernel needs >= 1 block, got {blocks}")
        b_half = self.saturation_blocks * self._scale(sm_count)
        return blocks / (blocks + b_half)

    def compress_time(self, nbytes: int, blocks: int, sm_count: int) -> float:
        """Kernel duration for compressing ``nbytes`` of input using
        ``blocks`` thread blocks on a ``sm_count``-SM device."""
        tp = self.compress_tp * self._scale(sm_count) * self.occupancy(blocks, sm_count)
        return self.launch_overhead + nbytes / tp + self.sync_per_block * blocks

    def decompress_time(self, nbytes_out: int, blocks: int, sm_count: int) -> float:
        """Kernel duration for restoring ``nbytes_out`` of output."""
        tp = self.decompress_tp * self._scale(sm_count) * self.occupancy(blocks, sm_count)
        return self.launch_overhead + nbytes_out / tp + self.sync_per_block * blocks

    def reduce_time(self, nbytes: int, blocks: int, sm_count: int) -> float:
        """Duration of one fused hZCCL-style reduction kernel: partially
        decode both compressed operands, combine elementwise, and
        re-encode the result, all in a single launch.  Pays the decode
        and encode passes over ``nbytes`` of uncompressed data but only
        one launch and one block-synchronization epoch — versus the
        naive decompress + add + compress sequence's two launches, two
        sync epochs, and full-precision intermediate."""
        scale = self._scale(sm_count)
        occ = self.occupancy(blocks, sm_count)
        tp_d = self.decompress_tp * scale * occ
        tp_c = self.compress_tp * scale * occ
        return (self.launch_overhead + nbytes / tp_d + nbytes / tp_c
                + self.sync_per_block * blocks)


# Table III calibration (V100).  MPC's busy-wait barrier cost is chosen
# so a full-device (80-block) kernel pays ~24us of synchronization —
# consistent with the several-x win Fig 6 shows from decomposition.
MPC_V100 = KernelCostModel(
    name="mpc",
    compress_tp=Gbps(205.0),
    decompress_tp=Gbps(185.0),
    launch_overhead=us(5.0),
    sync_per_block=us(0.30),
    saturation_blocks=8.0,
)

ZFP_V100 = KernelCostModel(
    name="zfp",
    compress_tp=Gbps(450.0),
    decompress_tp=Gbps(730.0),
    launch_overhead=us(5.0),
    sync_per_block=0.0,
    saturation_blocks=8.0,
)

# FPC is a CPU codec: model single-core throughput per the FPC paper
# (~1-4 Gb/s); "blocks" are ignored via a flat occupancy curve.
FPC_CPU = KernelCostModel(
    name="fpc",
    compress_tp=Gbps(3.0),
    decompress_tp=Gbps(4.0),
    launch_overhead=0.0,
    sync_per_block=0.0,
    saturation_blocks=1e-9,
)

NULL_MODEL = KernelCostModel(
    name="null",
    compress_tp=float("inf"),
    decompress_tp=float("inf"),
    launch_overhead=0.0,
    sync_per_block=0.0,
    saturation_blocks=1e-9,
)

# GFC's title claims 75 Gb/s on 2011 hardware; scaled to V100-class
# parts it lands near MPC.  SZ's CUDA implementation (cuSZ-class) sits
# between MPC and ZFP.
GFC_V100 = KernelCostModel(
    name="gfc", compress_tp=Gbps(250.0), decompress_tp=Gbps(280.0),
    launch_overhead=us(5.0), sync_per_block=0.0, saturation_blocks=8.0,
)
SZ_V100 = KernelCostModel(
    name="sz", compress_tp=Gbps(320.0), decompress_tp=Gbps(500.0),
    launch_overhead=us(5.0), sync_per_block=0.0, saturation_blocks=8.0,
)

#: registry name -> cost model; filled by ``registry.register``
MODELS: dict = {}


def kernel_cost_model_for(algorithm: str) -> KernelCostModel:
    """Cost model for a codec by registry name."""
    try:
        return MODELS[algorithm]
    except KeyError:
        raise ConfigError(
            f"no kernel cost model for {algorithm!r}; known: {sorted(MODELS)}"
        ) from None
