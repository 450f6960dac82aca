"""Compressor registry and the paper's Table I feature matrix.

``get_compressor`` constructs codecs by name with keyword parameters
(the framework's header stores only the name + params, so both ends of
a link can reconstruct the same codec).  ``feature_table`` regenerates
the comparison matrix of the paper's Table I, including rows for
compressors surveyed but not reimplemented here.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.compression import perfmodel
from repro.compression.base import Compressor
from repro.compression.fpc import FpcCompressor
from repro.compression.gfc import GfcCompressor
from repro.compression.mpc import MpcCompressor
from repro.compression.null import NullCompressor
from repro.compression.sz import SzCompressor
from repro.compression.zfp import ZfpCompressor
from repro.compression.zfp2d import Zfp2dCompressor
from repro.errors import CompressionError

__all__ = ["register", "get_compressor", "codec_class", "available",
           "WIRE_CODES", "WIRE_NAMES", "feature_table",
           "TABLE1_ROWS"]

_REGISTRY: Dict[str, Callable[..., Compressor]] = {}
#: registry name <-> header u8 of the codecs admitted as transport
WIRE_CODES: Dict[str, int] = {}
WIRE_NAMES: Dict[int, str] = {}


def register(name: str, factory: Callable[..., Compressor],
             wire_code: int | None = None,
             cost_model: perfmodel.KernelCostModel | None = None) -> None:
    """Register a codec factory under ``name`` (overwrites allowed so
    applications can swap in custom codecs).

    ``wire_code`` — the u8 that names the codec in the compression
    header — admits it as an on-the-fly *transport* codec
    (``CompressionConfig.algorithm``); that also takes a ``cost_model``
    for its kernels and a :class:`Compressor` subclass as the factory,
    whose transport capabilities the engine reads.
    """
    if wire_code is not None:
        if WIRE_NAMES.get(wire_code, name) != name or not 0 <= wire_code <= 0xFF:
            raise CompressionError(
                f"header wire code {wire_code} for {name!r} is out of range "
                f"or taken: {WIRE_NAMES}")
        WIRE_NAMES[wire_code] = name
        WIRE_CODES[name] = wire_code
    if cost_model is not None:
        perfmodel.MODELS[name] = cost_model
    _REGISTRY[name] = factory


def codec_class(name: str) -> Callable[..., Compressor]:
    """The factory registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CompressionError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def get_compressor(name: str, **params) -> Compressor:
    """Instantiate a registered codec, passing ``params`` through."""
    return codec_class(name)(**params)


def available() -> list[str]:
    return sorted(_REGISTRY)


register("mpc", MpcCompressor, 1, perfmodel.MPC_V100)
register("zfp", ZfpCompressor, 2, perfmodel.ZFP_V100)
register("sz", SzCompressor, 5, perfmodel.SZ_V100)
register("gfc", GfcCompressor, 4, perfmodel.GFC_V100)
register("fpc", FpcCompressor, 3, perfmodel.FPC_CPU)
register("null", NullCompressor, 0, perfmodel.NULL_MODEL)
register("zfp2d", Zfp2dCompressor)  # 2-D input only: not a transport codec


# The full Table I of the paper.  Columns: (lossless, lossy, gpu,
# single, double, high_throughput, efficient_mpi).  ``implemented``
# marks the rows this package provides as working code.
TABLE1_ROWS: list[dict] = [
    dict(name="FPC", lossless=True, lossy=False, gpu=False, single=False, double=True,
         high_throughput=False, mpi=True, implemented=True, impl="fpc"),
    dict(name="fpzip", lossless=True, lossy=True, gpu=False, single=True, double=True,
         high_throughput=False, mpi=False, implemented=False, impl=None),
    dict(name="ISOBAR", lossless=True, lossy=False, gpu=False, single=True, double=True,
         high_throughput=False, mpi=False, implemented=False, impl=None),
    dict(name="SPDP", lossless=True, lossy=False, gpu=False, single=True, double=True,
         high_throughput=False, mpi=False, implemented=False, impl=None),
    dict(name="GFC", lossless=True, lossy=False, gpu=True, single=False, double=True,
         high_throughput=True, mpi=False, implemented=True, impl="gfc"),
    dict(name="MPC", lossless=True, lossy=False, gpu=True, single=True, double=True,
         high_throughput=True, mpi=False, implemented=True, impl="mpc"),
    dict(name="SZ", lossless=False, lossy=True, gpu=True, single=True, double=True,
         high_throughput=True, mpi=False, implemented=True, impl="sz"),
    dict(name="ZFP", lossless=False, lossy=True, gpu=True, single=True, double=True,
         high_throughput=True, mpi=False, implemented=True, impl="zfp"),
    dict(name="Proposed MPC-OPT", lossless=True, lossy=False, gpu=True, single=True,
         double=True, high_throughput=True, mpi=True, implemented=True, impl="mpc"),
    dict(name="Proposed ZFP-OPT", lossless=False, lossy=True, gpu=True, single=True,
         double=True, high_throughput=True, mpi=True, implemented=True, impl="zfp"),
]


def feature_table() -> list[list[str]]:
    """Rows for rendering Table I: check/cross marks per feature."""
    def mark(b: bool) -> str:
        return "yes" if b else "no"

    out = []
    for row in TABLE1_ROWS:
        out.append([
            row["name"], mark(row["lossless"]), mark(row["lossy"]), mark(row["gpu"]),
            mark(row["single"]), mark(row["double"]), mark(row["high_throughput"]),
            mark(row["mpi"]), mark(row["implemented"]),
        ])
    return out
