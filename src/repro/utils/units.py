"""Unit constants and formatting.

Internal convention throughout the package:

* time: **seconds** (float)
* sizes: **bytes** (int)
* bandwidth: **bytes/second** (float)

The constants below convert the units used by the paper (GB/s for
links, Gb/s for compressor throughput, microseconds for overheads) into
the internal convention.
"""

from __future__ import annotations

import re

__all__ = [
    "KB", "MB", "GB", "KiB", "MiB", "GiB",
    "Gbps", "GBps", "us",
    "fmt_bytes", "fmt_time", "parse_size",
]

# Decimal sizes (network vendors quote decimal).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Binary sizes (message-size sweeps use powers of two).
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30


def GBps(x: float) -> float:
    """Gigabytes/second -> bytes/second."""
    return x * 1e9


def Gbps(x: float) -> float:
    """Gigabits/second -> bytes/second."""
    return x * 1e9 / 8.0


def us(x: float) -> float:
    """Microseconds -> seconds."""
    return x * 1e-6


_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d*)?|\.\d+)\s*([KMG]i?)?B?\s*$",
                      re.IGNORECASE)
_SIZE_MULT = {"K": KiB, "M": MiB, "G": GiB}


def parse_size(text: str | int) -> int:
    """Parse '4M', '256Ki', '512KiB', '0.5M', 4096 -> bytes.

    K/M/G suffixes, bare or with 'i', are *binary* multiples to match
    OSU-benchmark conventions ('4M' message = 4 MiB), and digits-only
    strings are literal bytes.  Anything that is not a whole,
    non-negative number of bytes ('1.5', '0.3K', -4) is a ValueError.
    """
    if isinstance(text, int):
        n = text
    else:
        m = _SIZE_RE.match(text)
        if not m:
            raise ValueError(f"unparseable size: {text!r}")
        suffix = m.group(2)
        n = float(m.group(1)) * (_SIZE_MULT[suffix[0].upper()] if suffix else 1)
    if n < 0 or n != int(n):
        raise ValueError(f"not a whole number of bytes: {text!r}")
    return int(n)


def fmt_bytes(n: int) -> str:
    """Format a byte count the way OSU benchmarks label message sizes."""
    if n >= GiB and n % GiB == 0:
        return f"{n // GiB}G"
    if n >= MiB and n % MiB == 0:
        return f"{n // MiB}M"
    if n >= KiB and n % KiB == 0:
        return f"{n // KiB}K"
    return str(n)


def fmt_time(seconds: float) -> str:
    """Human-readable duration."""
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
