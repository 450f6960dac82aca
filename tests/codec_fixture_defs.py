"""Shared definitions for the codec bitstream fixtures.

The fixtures pin every codec's *exact* compressed byte stream (and, for
lossy codecs, the exact decoded array) across a representative matrix of
datasets, dtypes and rates.  They were captured from the implementations
*before* the vectorized bit-assembly rewrite, so any rewrite of a codec
hot path must keep producing byte-identical streams or the fixture test
fails.

Regenerate deliberately (only when a codec's stream format is *meant*
to change) with::

    PYTHONPATH=src python tests/make_codec_fixtures.py

Inputs are not stored: they are re-derived deterministically from the
case descriptor (the seed is a CRC32 of the descriptor string, never
``hash()``).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from repro.compression.fpc import FpcCompressor
from repro.compression.gfc import GfcCompressor
from repro.compression.mpc import MpcCompressor
from repro.compression.sz import SzCompressor
from repro.compression.zfp import ZfpCompressor
from repro.compression.zfp2d import Zfp2dCompressor

FIXTURE_DIR = Path(__file__).parent / "data" / "codec_streams"
NPZ_PATH = FIXTURE_DIR / "streams.npz"
MANIFEST_PATH = FIXTURE_DIR / "manifest.json"

#: codecs whose decoded output must also match bit-for-bit (lossy codecs
#: have no round-trip identity to fall back on)
LOSSY = ("zfp", "zfp2d", "sz")


def _seed_for(desc: str) -> int:
    return zlib.crc32(desc.encode())


def make_data(kind: str, n, dtype: str, seed: int) -> np.ndarray:
    """Deterministic dataset families covering the codec edge cases."""
    rng = np.random.default_rng(seed)
    if kind == "smooth2d" or kind == "rough2d":
        rows, cols = n
        if kind == "smooth2d":
            y, x = np.mgrid[0:rows, 0:cols]
            data = np.sin(x / 9.0) * np.cos(y / 7.0) + 0.05 * x
        else:
            data = rng.standard_normal((rows, cols)) * 100.0
        return data.astype(dtype)
    if kind == "smooth":
        x = np.arange(n)
        data = np.sin(x / 17.0) * 3.0 + x / 500.0
    elif kind == "rough":
        data = rng.standard_normal(n) * 1e4
    elif kind == "sparse":
        data = np.zeros(n)
        idx = rng.choice(n, size=max(1, n // 16), replace=False)
        data[idx] = rng.standard_normal(idx.size) * 7.0
    elif kind == "walk":
        data = np.cumsum(rng.standard_normal(n) * 0.01) + 42.0
    elif kind == "interleaved3":
        m = -(-n // 3)
        x = np.arange(m)
        fields = np.stack([np.sin(x / 13.0), np.cos(x / 29.0) * 2.0, x / 99.0])
        data = fields.T.reshape(-1)[:n]
    else:  # pragma: no cover - guarded by the case table
        raise ValueError(f"unknown dataset kind {kind!r}")
    return data.astype(dtype)


def _codec_for(name: str, params: dict):
    cls = {"zfp": ZfpCompressor, "zfp2d": Zfp2dCompressor,
           "mpc": MpcCompressor, "fpc": FpcCompressor,
           "gfc": GfcCompressor, "sz": SzCompressor}[name]
    return cls(**params)


def cases() -> list[dict]:
    """The curated fixture matrix (name/params/dataset per case)."""
    out: list[dict] = []

    def add(codec, params, kind, n, dtype):
        out.append({"codec": codec, "params": params, "kind": kind,
                    "n": n, "dtype": dtype})

    for rate in (3, 4, 7, 8, 13, 16, 27, 32):
        add("zfp", {"rate": rate}, "smooth", 1021, "float32")
        add("zfp", {"rate": rate}, "sparse", 512, "float32")
    for rate in (4, 16, 31, 64):
        add("zfp", {"rate": rate}, "smooth", 1021, "float64")
        add("zfp", {"rate": rate}, "walk", 510, "float64")
    for rate in (1, 4, 8, 13, 32):
        add("zfp2d", {"rate": rate}, "smooth2d", (17, 23), "float32")
        add("zfp2d", {"rate": rate}, "rough2d", (32, 64), "float32")
    for dim in (1, 3):
        for dtype in ("float32", "float64"):
            add("mpc", {"dimensionality": dim}, "interleaved3", 1000, dtype)
            add("mpc", {"dimensionality": dim}, "walk", 777, dtype)
    for dtype in ("float32", "float64"):
        add("fpc", {}, "walk", 777, dtype)
        add("fpc", {}, "rough", 512, dtype)
    for kind, n in (("walk", 777), ("smooth", 1021), ("rough", 512)):
        add("gfc", {}, kind, n, "float64")
    for eb in (1e-3, 1e-1):
        for dtype in ("float32", "float64"):
            add("sz", {"error_bound": eb}, "smooth", 1021, dtype)
            add("sz", {"error_bound": eb}, "rough", 512, dtype)
    return out


def case_desc(case: dict) -> str:
    """Stable one-line descriptor (doubles as the RNG seed source)."""
    p = ",".join(f"{k}={v}" for k, v in sorted(case["params"].items()))
    return (f"{case['codec']}({p})/{case['kind']}"
            f"/n={case['n']}/{case['dtype']}")


def run_case(case: dict):
    """(payload bytes, decoded array) for one case, using the live code."""
    desc = case_desc(case)
    data = make_data(case["kind"], case["n"], case["dtype"], _seed_for(desc))
    codec = _codec_for(case["codec"], case["params"])
    comp = codec.compress(data)
    out = codec.decompress(comp)
    return comp.payload, out


def build_fixtures() -> dict:
    """Run every case and write the npz + manifest.  Returns the manifest."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    manifest = []
    for i, case in enumerate(cases()):
        payload, out = run_case(case)
        arrays[f"p{i}"] = payload
        entry = dict(case, index=i, desc=case_desc(case),
                     payload_bytes=int(payload.nbytes),
                     payload_crc32=zlib.crc32(payload.tobytes()))
        if case["codec"] in LOSSY:
            arrays[f"o{i}"] = out
            entry["output_crc32"] = zlib.crc32(np.ascontiguousarray(out).tobytes())
        manifest.append(entry)
    np.savez_compressed(NPZ_PATH, **arrays)
    doc = {"n_cases": len(manifest), "cases": manifest}
    with open(MANIFEST_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


# -- multi-tile digests --------------------------------------------------------
#
# Every case above is <= 2,048 elements: smaller than one tile of the
# cache-blocked kernels.  The cases below span several tiles and pin the
# stream and the decoded array by (nbytes, crc32) — the arrays are too
# big to commit.  The digests were captured on the commit *before* the
# kernels were tiled and narrowed to native width.

MULTITILE_PATH = FIXTURE_DIR / "multitile_digests.json"

#: element counts: a whole number of tiles for every tile size on the
#: plateau (256 KiB - 1 MiB of float32 or float64 input), one element
#: either side of it, a ragged size on no boundary at all, and 4 Mi
MULTITILE_SIZES = (262144, 262143, 262145, 200003, 4 * 1024 * 1024)


def make_multitile_data(kind: str, n: int, dtype: str) -> np.ndarray:
    """Seeded data built from integer draws and exact power-of-two
    scaling only (no transcendental ufuncs), so it is the same on every
    numpy build.

    ``mixed``: full-mantissa values whose exponent wanders over +-60
    within and across tiles, with runs of exact zeros (all-zero blocks
    between non-zero ones).  ``walk``: a smooth random walk, the shape
    MPC compresses."""
    rng = np.random.default_rng(_seed_for(f"multitile/{kind}/{n}/{dtype}"))
    if kind == "walk":
        steps = rng.integers(-1000, 1001, n)
        return (np.cumsum(steps) * 2.0 ** -10 + 42.0).astype(dtype)
    mant = rng.integers(-(1 << 23), 1 << 23, n).astype(np.float64)
    exp = np.clip(np.cumsum(rng.integers(-1, 2, n)) // 8, -60, 60)
    data = np.ldexp(mant, exp.astype(np.int32))
    starts = rng.integers(0, n, max(1, n // 64))
    zero_idx = (starts[:, None] + np.arange(8)[None, :]).reshape(-1)
    data[zero_idx[zero_idx < n]] = 0.0
    return data.astype(dtype)


def multitile_cases() -> list[dict]:
    out: list[dict] = []
    for n in MULTITILE_SIZES:
        for rate in (3, 4, 8, 13, 32):
            out.append({"codec": "zfp", "params": {"rate": rate},
                        "kind": "mixed", "n": n, "dtype": "float32"})
        for rate in (4, 16, 64):
            out.append({"codec": "zfp", "params": {"rate": rate},
                        "kind": "mixed", "n": n, "dtype": "float64"})
        for dim in (1, 3):
            for dtype in ("float32", "float64"):
                out.append({"codec": "mpc", "params": {"dimensionality": dim},
                            "kind": "walk", "n": n, "dtype": dtype})
    return out


def _digest(arr: np.ndarray) -> list[int]:
    arr = np.ascontiguousarray(arr)
    return [int(arr.nbytes), zlib.crc32(arr.view(np.uint8))]


def run_multitile_case(case: dict) -> dict:
    """``{"stream": [nbytes, crc32], "decoded": [nbytes, crc32]}`` for
    one case, using the live code."""
    data = make_multitile_data(case["kind"], case["n"], case["dtype"])
    codec = _codec_for(case["codec"], case["params"])
    comp = codec.compress(data)
    out = codec.decompress(comp)
    assert out.dtype == data.dtype and out.shape == data.shape
    return {"stream": _digest(comp.payload), "decoded": _digest(out)}


def build_multitile_digests() -> dict:
    doc = {case_desc(c): run_multitile_case(c) for c in multitile_cases()}
    with open(MULTITILE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
