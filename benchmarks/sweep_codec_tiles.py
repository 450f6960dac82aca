"""Tile-size sweep behind ``_TILE_BYTES`` of the ZFP and MPC kernels.

Times encode and decode of one 16 MiB ``wave`` message (float32, and
the same values as float64) at each tile size by rebinding the module
constant — the only way to change it: it is not a config field.  The
last row (a tile as large as the message) is the untiled kernel.
Prints the markdown table kept in docs/performance.md ("Codec kernels:
native width, cache-blocked").  Host timing, so run it on a quiet box
and under the allocator settings the cross-commit benchmark uses::

    MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=4294967296 \\
        PYTHONPATH=src python benchmarks/sweep_codec_tiles.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression import mpc, zfp
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

TILES = (32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, MiB,
         2 * MiB, 4 * MiB, 16 * MiB)
REPS = 15


def _best_ms(fn) -> float:
    """Minimum over ``REPS`` runs: the box's noise only ever adds."""
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> None:
    wave32 = make_payload("wave", 16 * MiB, 3)
    inputs = {"f32": wave32, "f64": wave32[: wave32.size // 2].astype(np.float64)}
    codecs = {"f32": zfp.ZfpCompressor(8), "f64": zfp.ZfpCompressor(16)}
    lossless = mpc.MpcCompressor(1)
    names = [f"{codec} {op} {p}" for codec in ("zfp", "mpc")
             for p in inputs for op in ("enc", "dec")]
    print("| tile | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for tile in TILES:
        zfp._TILE_BYTES = mpc._TILE_BYTES = tile
        row = []
        for codec in (codecs, {"f32": lossless, "f64": lossless}):
            for p, data in inputs.items():
                comp = codec[p].compress(data)
                row.append(_best_ms(lambda: codec[p].compress(data)))
                row.append(_best_ms(lambda: codec[p].decompress(comp)))
        print(f"| {tile // KiB} KiB | " + " | ".join(f"{ms:.1f}" for ms in row) + " |")


if __name__ == "__main__":
    main()
