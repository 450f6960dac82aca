"""Regenerate the codec bitstream fixtures (tests/data/codec_streams/).

Only run this deliberately, when a codec's *stream format* is meant to
change; the whole point of the fixtures is that performance rewrites
must NOT change the bytes.  Usage::

    PYTHONPATH=src python tests/make_codec_fixtures.py [streams|multitile]

``streams`` rewrites ``streams.npz`` + ``manifest.json`` (the small
cases, stored whole), ``multitile`` rewrites ``multitile_digests.json``
(the multi-tile cases, pinned by size and CRC32); no argument does both.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from codec_fixture_defs import (  # noqa: E402
    MULTITILE_PATH, NPZ_PATH, build_fixtures, build_multitile_digests,
)

if __name__ == "__main__":
    which = sys.argv[1:] or ["streams", "multitile"]
    if "streams" in which:
        doc = build_fixtures()
        total = sum(c["payload_bytes"] for c in doc["cases"])
        print(f"wrote {NPZ_PATH}: {doc['n_cases']} cases, "
              f"{total} payload bytes pinned")
    if "multitile" in which:
        digests = build_multitile_digests()
        print(f"wrote {MULTITILE_PATH}: {len(digests)} cases pinned by digest")
