"""Passthrough codec — the no-compression control."""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedData, Compressor
from repro.errors import CompressionError

__all__ = ["NullCompressor"]


class NullCompressor(Compressor):
    """Stores the raw little-endian bytes; ratio is exactly 1."""

    name = "null"
    lossless = True
    gpu_supported = True
    single_precision = True
    double_precision = True
    high_throughput = True
    mpi_support = True
    reduce_supported = True  # payload *is* the data; reduction is a raw add

    def expected_compressed_bytes(self, n_elements: int, itemsize: int) -> int:
        return n_elements * itemsize

    def compress(self, data: np.ndarray) -> CompressedData:
        data = self._check_input(data)
        return CompressedData(
            algorithm=self.name,
            payload=data.view(np.uint8).copy(),
            n_elements=data.size,
            dtype=data.dtype,
            meta={"compressed_bytes": int(data.nbytes)},
        )

    def decompress(self, comp: CompressedData) -> np.ndarray:
        self._check_payload(comp)
        need = comp.n_elements * comp.dtype.itemsize
        if comp.payload.size != need:
            raise CompressionError(
                f"null payload size mismatch: expected {need} bytes, "
                f"have {comp.payload.size}"
            )
        return comp.payload.view(comp.dtype).copy()
