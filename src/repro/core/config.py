"""Compression framework configuration.

One dataclass covers the whole design space the paper explores; the
named constructors correspond to the configurations evaluated in the
figures:

=========================  =============================================
constructor                paper configuration
=========================  =============================================
``disabled()``             Baseline (no compression)
``naive_mpc()``            Fig 5/6a "Proposed with MPC"
``naive_zfp(rate)``        Fig 5/8a "Proposed with ZFP"
``mpc_opt()``              Fig 6b/9/11/12/13 "MPC-OPT"
``zfp_opt(rate)``          Fig 8b/9/10/11/12/13/14 "ZFP-OPT(rate:r)"
=========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.compression.registry import WIRE_CODES
from repro.errors import ConfigError
from repro.utils.units import KiB

__all__ = ["CompressionConfig"]


@dataclass(frozen=True)
class CompressionConfig:
    """Every knob of the on-the-fly compression framework.

    Attributes
    ----------
    enabled:
        Master switch; when False every other field is ignored.
    algorithm:
        Registry name of the transport codec ("mpc" or "zfp" in the
        paper) — any codec registered with a header wire code.
    threshold:
        Minimum message size (bytes) for compression to engage — the
        paper's "pre-defined threshold" in step 1.
    mpc_dimensionality:
        MPC's LNV stride (control parameter ``A``).
    zfp_rate:
        ZFP's fixed rate in bits/value (control parameter ``A``).
    use_buffer_pool:
        MPC-OPT/ZFP-OPT optimization 1-2: take the compressed-data and
        ``d_off`` buffers from pre-allocated pools instead of
        ``cudaMalloc`` in the critical path.
    use_gdrcopy:
        MPC-OPT optimization 3: retrieve the compressed size via
        GDRCopy (~1-5us) instead of ``cudaMemcpy`` (~20us).
    partitions:
        MPC-OPT kernel decomposition: 0 = auto-tune per message size,
        1 = single kernel (naive MPC behaviour), n>1 = fixed count.
    cache_device_attrs:
        ZFP-OPT optimization: query the max grid dimensions once via
        ``cudaDeviceGetAttribute`` and cache, instead of calling
        ``cudaGetDeviceProperties`` per message.
    keep_compressed:
        gZCCL/ZCCL-style collective forwarding: intermediate ranks of a
        collective relay the originating rank's compressed wire image
        (verifying only its wire CRC) instead of decompressing and
        recompressing at every hop.  On by default; turn off for the
        per-hop-recompress ablation in ``repro bench``.  Ignored when
        ``enabled`` is False (raw payloads have no wire image to keep).
    pipeline:
        Extension: stream each compressed partition to the wire as soon
        as its kernel completes (and decompress each on arrival),
        overlapping compression, transfer and decompression the way
        MVAPICH2-GDR pipelines large messages.  The paper's design
        combines partitions before sending; this flag implements the
        natural next step and is benchmarked as an extension (the
        paper matrix's ``ext/pipeline/*`` entries).  Only codecs that
        declare ``streamable`` partitions (mpc, zfp) stream; any other
        codec takes the whole-message plan.
    """

    enabled: bool = False
    algorithm: str = "mpc"
    threshold: int = 128 * KiB
    mpc_dimensionality: int = 1
    zfp_rate: int = 16
    sz_error_bound: float = 1e-3
    use_buffer_pool: bool = True
    use_gdrcopy: bool = True
    partitions: int = 0
    cache_device_attrs: bool = True
    pipeline: bool = False
    keep_compressed: bool = True

    def __post_init__(self):
        if self.algorithm not in WIRE_CODES:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; known: {tuple(WIRE_CODES)}")
        if self.threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if self.partitions < 0:
            raise ConfigError(f"partitions must be >= 0 (0 = auto), got {self.partitions}")
        if self.mpc_dimensionality < 1:
            raise ConfigError(f"mpc_dimensionality must be >= 1, got {self.mpc_dimensionality}")
        if not (3 <= self.zfp_rate <= 64):
            raise ConfigError(f"zfp_rate must be in [3, 64], got {self.zfp_rate}")
        if not (self.sz_error_bound > 0):
            raise ConfigError(f"sz_error_bound must be > 0, got {self.sz_error_bound}")

    # -- named configurations --------------------------------------------
    @classmethod
    def disabled(cls) -> "CompressionConfig":
        """Baseline: no compression."""
        return cls(enabled=False)

    @classmethod
    def naive_mpc(cls, dimensionality: int = 1, threshold: int = 128 * KiB) -> "CompressionConfig":
        """Section III's naive MPC integration: cudaMalloc and
        cudaMemcpy in the critical path, one full-device kernel."""
        return cls(
            enabled=True, algorithm="mpc", threshold=threshold,
            mpc_dimensionality=dimensionality,
            use_buffer_pool=False, use_gdrcopy=False, partitions=1,
            cache_device_attrs=False,
        )

    @classmethod
    def naive_zfp(cls, rate: int = 16, threshold: int = 128 * KiB) -> "CompressionConfig":
        """Section III's naive ZFP integration: cudaMalloc per message
        and cudaGetDeviceProperties per kernel launch."""
        return cls(
            enabled=True, algorithm="zfp", threshold=threshold, zfp_rate=rate,
            use_buffer_pool=False, use_gdrcopy=False, partitions=1,
            cache_device_attrs=False,
        )

    @classmethod
    def mpc_opt(cls, dimensionality: int = 1, partitions: int = 0,
                threshold: int = 128 * KiB) -> "CompressionConfig":
        """The proposed MPC-OPT scheme (Section IV)."""
        return cls(
            enabled=True, algorithm="mpc", threshold=threshold,
            mpc_dimensionality=dimensionality,
            use_buffer_pool=True, use_gdrcopy=True, partitions=partitions,
            cache_device_attrs=True,
        )

    @classmethod
    def zfp_opt(cls, rate: int = 16, threshold: int = 128 * KiB) -> "CompressionConfig":
        """The proposed ZFP-OPT scheme (Section V)."""
        return cls(
            enabled=True, algorithm="zfp", threshold=threshold, zfp_rate=rate,
            use_buffer_pool=True, use_gdrcopy=True, partitions=1,
            cache_device_attrs=True,
        )

    def codec_params(self) -> dict:
        """Constructor kwargs of the configured transport codec — the
        one place config fields map to codec parameters."""
        return {
            "mpc": {"dimensionality": self.mpc_dimensionality},
            "zfp": {"rate": self.zfp_rate},
            # The bound as the header carries it (a float32), so both
            # ends run the same codec and the sender's expected-value
            # decode is the receiver's.
            "sz": {"error_bound": float(np.float32(self.sz_error_bound))},
        }.get(self.algorithm, {})

    def with_(self, **changes) -> "CompressionConfig":
        """A copy with fields replaced (for ablation sweeps)."""
        return replace(self, **changes)

    @property
    def label(self) -> str:
        """Figure-legend style label."""
        if not self.enabled:
            return "Baseline (No compression)"
        opt = self.use_buffer_pool and (self.use_gdrcopy or self.algorithm == "zfp")
        if self.algorithm == "mpc":
            return "MPC-OPT" if opt else "MPC (naive)"
        if self.algorithm == "zfp":
            tag = "ZFP-OPT" if (opt and self.cache_device_attrs) else "ZFP (naive)"
            return f"{tag} (rate:{self.zfp_rate})"
        return self.algorithm
