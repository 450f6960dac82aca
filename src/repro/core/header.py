"""The compression header piggybacked on the RTS packet.

The framework forwards two groups of information from sender to
receiver (paper Figure 4):

* **A — control parameters**: whether compression is used, which
  algorithm, the original element count and dtype, and the algorithm
  knobs (MPC dimensionality / ZFP rate, number of partitions).
* **B — kernel results**: the compressed size(s); for partitioned
  MPC-OPT, the per-partition compressed sizes so the receiver can
  launch one decompression kernel per partition.

``pack``/``unpack`` give the header a concrete binary form so the
RTS packet size (and hence its wire time) is realistic.

Binary layout (little-endian)::

    u8   magic (0xC5)
    u8   flags          bit0: compressed, bit1: pipelined
    u8   algorithm      the codec's wire code (compression.registry)
    u8   dtype          0=float32 1=float64
    u64  n_elements
    u32  param          the codec's ``header_param`` (mpc dimensionality |
                        zfp rate | float32 bits of the sz error bound)
    u16  n_partitions
    u32  x n_partitions  compressed bytes per partition
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.compression.registry import WIRE_CODES, WIRE_NAMES, codec_class
from repro.errors import HeaderError

__all__ = ["CompressionHeader"]

_MAGIC = 0xC5
_DTYPE_CODES = {"float32": 0, "float64": 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
_FIXED = struct.Struct("<BBBBQIH")


@dataclass(frozen=True)
class CompressionHeader:
    """Everything the receiver needs to restore the message."""

    compressed: bool
    algorithm: str = "null"
    dtype_name: str = "float32"
    n_elements: int = 0
    param: int = 0
    partition_sizes: tuple = field(default_factory=tuple)
    pipelined: bool = False

    @classmethod
    def uncompressed(cls, nbytes: int) -> "CompressionHeader":
        """Header for a message sent as raw bytes (compression off,
        below threshold, or unsupported dtype)."""
        return cls(compressed=False, n_elements=int(nbytes), partition_sizes=(int(nbytes),))

    @classmethod
    def for_message(cls, algorithm: str, dtype, n_elements: int, param: int,
                    partition_sizes, pipelined: bool = False) -> "CompressionHeader":
        return cls(
            compressed=True,
            algorithm=algorithm,
            dtype_name=np.dtype(dtype).name,
            n_elements=int(n_elements),
            param=int(param),
            partition_sizes=tuple(int(s) for s in partition_sizes),
            pipelined=pipelined,
        )

    # -- derived -----------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.partition_sizes)

    @property
    def wire_bytes(self) -> int:
        """Total compressed payload bytes on the wire."""
        return sum(self.partition_sizes)

    @property
    def original_nbytes(self) -> int:
        if not self.compressed:
            return self.n_elements  # stored as raw byte count
        return self.n_elements * np.dtype(self.dtype_name).itemsize

    @property
    def nbytes(self) -> int:
        """Size of the packed header itself (added to the RTS packet)."""
        return _FIXED.size + 4 * self.n_partitions

    # -- wire form ----------------------------------------------------------
    def pack(self) -> bytes:
        try:
            algo = WIRE_CODES[self.algorithm]
            dt = _DTYPE_CODES[self.dtype_name]
        except KeyError as exc:
            raise HeaderError(f"unencodable header field: {exc}") from None
        if self.n_partitions > 0xFFFF:
            raise HeaderError(f"too many partitions: {self.n_partitions}")
        flags = (1 if self.compressed else 0) | (2 if self.pipelined else 0)
        head = _FIXED.pack(
            _MAGIC, flags, algo, dt,
            self.n_elements, self.param, self.n_partitions,
        )
        return head + struct.pack(f"<{self.n_partitions}I", *self.partition_sizes)

    @classmethod
    def unpack(cls, raw: bytes) -> "CompressionHeader":
        if len(raw) < _FIXED.size:
            raise HeaderError(f"header truncated: {len(raw)} bytes")
        magic, flags, algo, dt, n_elem, param, n_part = _FIXED.unpack_from(raw)
        if magic != _MAGIC:
            raise HeaderError(f"bad header magic: {magic:#x}")
        need = _FIXED.size + 4 * n_part
        if len(raw) < need:
            raise HeaderError(f"header truncated: need {need} bytes, have {len(raw)}")
        sizes = struct.unpack_from(f"<{n_part}I", raw, _FIXED.size)
        try:
            algorithm = WIRE_NAMES[algo]
            dtype_name = _DTYPE_NAMES[dt]
        except KeyError as exc:
            raise HeaderError(f"undecodable header field: {exc}") from None
        return cls(
            compressed=bool(flags & 1),
            algorithm=algorithm,
            dtype_name=dtype_name,
            n_elements=n_elem,
            param=param,
            partition_sizes=sizes,
            pipelined=bool(flags & 2),
        )

    def codec_params(self) -> dict:
        """Control parameters to reconstruct the codec on the receiver."""
        return codec_class(self.algorithm).params_from_header(self.param)
