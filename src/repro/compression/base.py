"""Compressor interface and compressed-message container.

Mirrors the paper's framework split: *control parameters* (the header
field ``A`` — algorithm, dtype, element count, algorithm knobs) travel
in the MPI header piggybacked on the RTS packet, while the *result
metadata* (field ``B`` — compressed size, per-partition sizes) is
produced by the kernel.  :class:`CompressedData` carries both alongside
the payload so that a receiver can reconstruct the original array.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.errors import CompressionError

__all__ = ["Compressor", "CompressedData"]


@dataclass
class CompressedData:
    """A compressed message plus everything needed to restore it.

    Attributes
    ----------
    algorithm:
        Registry name of the compressor that produced the payload.
    payload:
        The compressed bytes as a contiguous ``uint8`` array.
    n_elements:
        Element count of the original array.
    dtype:
        Original numpy dtype (``float32``/``float64``).
    params:
        Algorithm control parameters (header field ``A``), e.g.
        ``{"dimensionality": 2}`` for MPC or ``{"rate": 8}`` for ZFP.
    meta:
        Kernel-produced metadata (header field ``B``), e.g. the exact
        compressed size; for partitioned MPC-OPT the per-partition
        compressed sizes live here.
    """

    algorithm: str
    payload: np.ndarray
    n_elements: int
    dtype: np.dtype
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.payload = np.ascontiguousarray(self.payload, dtype=np.uint8)
        self.dtype = np.dtype(self.dtype)

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes."""
        return int(self.payload.nbytes)

    @property
    def original_nbytes(self) -> int:
        return int(self.n_elements * self.dtype.itemsize)

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed); > 1 is a win."""
        if self.nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.nbytes


class Compressor(ABC):
    """Interface every codec implements.

    Class attributes mirror the feature columns of the paper's Table I
    so :func:`repro.compression.registry.feature_table` can regenerate
    it.
    """

    #: registry name
    name: ClassVar[str] = ""
    #: True if decompression restores the input bit-for-bit
    lossless: ClassVar[bool] = True
    #: Table I column: has a GPU (CUDA) implementation
    gpu_supported: ClassVar[bool] = False
    #: Table I column: handles single-precision floats
    single_precision: ClassVar[bool] = True
    #: Table I column: handles double-precision floats
    double_precision: ClassVar[bool] = True
    #: Table I column: high-throughput (suitable for on-the-fly use)
    high_throughput: ClassVar[bool] = False
    #: Table I column: efficient MPI (on-the-fly) support — only the
    #: proposed OPT schemes set this
    mpi_support: ClassVar[bool] = False
    #: hZCCL-style reduction capability: the codec can combine two
    #: compressed payloads in the partially-decoded domain, producing
    #: bits identical to ``compress(op(decompress(a), decompress(b)))``.
    #: Only meaningful for lossless codecs (a lossy codec would stack a
    #: second quantization error on the already-lossy operands), so the
    #: reduction collectives consult this flag before routing sums
    #: through :meth:`reduce_compressed`.
    reduce_supported: ClassVar[bool] = False

    #: dtypes accepted by compress()
    supported_dtypes: ClassVar[tuple] = (np.float32, np.float64)

    # -- transport capabilities --------------------------------------------
    # What the codec costs around its kernel when it is the on-the-fly
    # transport compressor.  CompressionEngine's one send-plan builder
    # and the receiver read these and nothing else about the codec
    # (docs/protocol.md has the codec x capability table).
    #: the whole-message plan is decomposed into concurrent kernels, one
    #: per partition, whose outputs are combined (MPC-OPT, Section IV)
    multi_kernel: ClassVar[bool] = False
    #: partitions decode independently, so a pipelined send may put each
    #: on the wire as its kernel completes
    streamable: ClassVar[bool] = False
    #: kernels need the per-SM ``d_off`` offsets array, on both ends
    needs_offsets: ClassVar[bool] = False
    #: host-side stream/field construction and a grid-dimension query
    #: precede every kernel launch, on both ends (ZFP, Section V)
    host_setup: ClassVar[bool] = False
    #: name of the one constructor parameter the header's u32 ``param``
    #: carries (control parameter ``A``); ``None`` when there is none
    header_field: ClassVar[str | None] = None

    @abstractmethod
    def compress(self, data: np.ndarray) -> CompressedData:
        """Compress a 1-D floating-point array into a payload."""

    @abstractmethod
    def decompress(self, comp: CompressedData) -> np.ndarray:
        """Restore (exactly, or within the codec's error bound) the
        original array from ``comp``."""

    # -- shared validation ----------------------------------------------
    def _check_input(self, data: np.ndarray) -> np.ndarray:
        if not isinstance(data, np.ndarray):
            raise CompressionError(f"{self.name}: expected ndarray, got {type(data).__name__}")
        if data.dtype.type not in self.supported_dtypes:
            raise CompressionError(
                f"{self.name}: unsupported dtype {data.dtype}; "
                f"supported: {[np.dtype(t).name for t in self.supported_dtypes]}"
            )
        if data.ndim != 1:
            data = data.reshape(-1)
        return np.ascontiguousarray(data)

    def _check_payload(self, comp: CompressedData) -> None:
        if comp.algorithm != self.name:
            raise CompressionError(
                f"payload was produced by {comp.algorithm!r}, not {self.name!r}"
            )
        if comp.n_elements < 0:
            raise CompressionError(
                f"{self.name}: negative element count {comp.n_elements}")
        if comp.dtype.type not in self.supported_dtypes:
            raise CompressionError(
                f"{self.name}: unsupported dtype {comp.dtype}; "
                f"supported: {[np.dtype(t).name for t in self.supported_dtypes]}"
            )

    def reduce_compressed(
        self, a: CompressedData, b: CompressedData, op: Any = np.add
    ) -> CompressedData:
        """Combine two compressed payloads without a full round trip.

        The contract is strict: the result must be bit-identical to
        ``compress(op(decompress(a), decompress(b)))``.  The default
        implementation realises exactly that contract by decoding both
        operands, applying ``op`` and re-encoding; codecs that set
        :attr:`reduce_supported` advertise that this is *cheap* on the
        device (hZCCL fuses the partial decode, the elementwise op and
        the re-encode into one kernel launch) — the simulator charges
        the fused-kernel time from
        :meth:`repro.compression.perfmodel.KernelCostModel.reduce_time`
        instead of separate decompress + compress launches.
        """
        if not self.reduce_supported:
            raise CompressionError(
                f"{self.name}: codec does not support compressed-domain reduction"
            )
        self._check_payload(a)
        self._check_payload(b)
        if a.n_elements != b.n_elements or a.dtype != b.dtype:
            raise CompressionError(
                f"{self.name}: reduce_compressed operand mismatch "
                f"({a.n_elements}x{a.dtype} vs {b.n_elements}x{b.dtype})"
            )
        return self.compress(op(self.decompress(a), self.decompress(b)))

    def cache_params(self) -> tuple:
        """Everything besides :attr:`name` that determines this
        instance's output, as a hashable tuple — its part of a
        memoization key.  Codecs keep their constructor parameters as
        public instance attributes (``dimensionality``, ``rate``,
        ``error_bound``), so the default covers a new codec or a new
        parameter without the cache having to know its name."""
        return tuple(sorted(
            (k, v) for k, v in vars(self).items() if not k.startswith("_")))

    def expected_compressed_bytes(self, n_elements: int, itemsize: int) -> int | None:
        """For fixed-rate codecs, the exact compressed size; ``None``
        when the size is data-dependent (the paper exploits this: ZFP's
        predictable size needs no worst-case staging buffer and no
        device->host size copy)."""
        return None

    def staging_bytes(self, nbytes: int) -> int:
        """Worst-case compressed size of ``nbytes`` of input — the
        device buffer a data-dependent-size codec compresses into."""
        return nbytes + nbytes // 4 + 8192

    def header_param(self) -> int:
        """This instance's :attr:`header_field` as the header's u32."""
        return int(getattr(self, self.header_field)) if self.header_field else 0

    @classmethod
    def params_from_header(cls, param: int) -> dict:
        """Constructor kwargs a received header ``param`` stands for:
        the inverse of :meth:`header_param`."""
        return {cls.header_field: param} if cls.header_field else {}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
