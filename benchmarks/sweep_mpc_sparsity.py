"""MPC encode/decode throughput against the share of *live* blocks.

A block of w words is live when any of its LNV residuals is non-zero;
the kernels run zigzag, transpose and zero elimination on live blocks
only, so their time should follow the live share, not the message
size.  Times one 4 MiB float32 message per live share: a ``wave``
payload (every block live) in which the dead blocks repeat the value
before them.  Prints the markdown table kept in docs/performance.md
("Block-sparse MPC"); run it against two checkouts for before/after.
Host timing, so run it on a quiet box and under the allocator settings
the cross-commit benchmark uses::

    MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=4294967296 \\
        PYTHONPATH=src python benchmarks/sweep_mpc_sparsity.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression.mpc import MpcCompressor
from repro.omb.payload import make_payload
from repro.utils.units import MiB

LIVE_SHARES = (0.0, 0.13, 0.5, 1.0)
NBYTES = 4 * MiB
REPS = 25


def _best_s(fn) -> float:
    """Minimum over ``REPS`` runs: the box's noise only ever adds."""
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def payload_with_live_share(share: float, seed: int = 3) -> np.ndarray:
    """A float32 message of which ``share`` of the 32-word blocks carry
    non-zero residuals at dimensionality 1."""
    wave = make_payload("wave", NBYTES, seed)
    if share == 0.0:
        return np.zeros_like(wave)
    live = np.random.default_rng(seed).random(wave.size // 32) < share
    live[0] = True  # the first word has no predecessor
    # every word of a dead block repeats the last word before the block
    source = np.where(np.repeat(live, 32), np.arange(wave.size), 0)
    return wave[np.maximum.accumulate(source)]


def main() -> None:
    codec = MpcCompressor(1)
    print("| live blocks | ratio | encode MB/s | decode MB/s |")
    print("|---|---|---|---|")
    for share in LIVE_SHARES:
        data = payload_with_live_share(share)
        comp = codec.compress(data)
        assert codec.decompress(comp).tobytes() == data.tobytes()
        enc = NBYTES / 1e6 / _best_s(lambda: codec.compress(data))
        dec = NBYTES / 1e6 / _best_s(lambda: codec.decompress(comp))
        print(f"| {share:.0%} | {comp.ratio:.1f} | {enc:.0f} | {dec:.0f} |")


if __name__ == "__main__":
    main()
