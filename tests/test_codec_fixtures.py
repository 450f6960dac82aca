"""Bit-identity of every codec against the pre-rewrite stream fixtures.

The fixtures in ``tests/data/codec_streams/`` were captured from the
codec implementations *before* the vectorized bit-assembly rewrite.
Every compressed stream (and, for lossy codecs, every decoded array)
must stay byte-identical: the rewrites are allowed to change host
wall-clock only, never a single output bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.codec_fixture_defs import (
    LOSSY, MANIFEST_PATH, MULTITILE_PATH, NPZ_PATH, case_desc, cases,
    multitile_cases, run_case, run_multitile_case,
)


@pytest.fixture(scope="module")
def fixture_arrays():
    if not NPZ_PATH.exists():  # pragma: no cover - regeneration guard
        pytest.fail(
            f"{NPZ_PATH} missing; regenerate with "
            "`PYTHONPATH=src python tests/make_codec_fixtures.py`")
    with np.load(NPZ_PATH) as npz:
        return {k: npz[k] for k in npz.files}


def test_manifest_matches_case_table():
    """The committed manifest and the in-code case table must agree —
    otherwise the npz indices no longer line up with ``cases()``."""
    with open(MANIFEST_PATH) as fh:
        doc = json.load(fh)
    live = cases()
    assert doc["n_cases"] == len(live)
    for entry, case in zip(doc["cases"], live):
        assert entry["desc"] == case_desc(case)


@pytest.mark.parametrize(
    "index,case", list(enumerate(cases())),
    ids=[case_desc(c) for c in cases()])
def test_stream_bit_identical(index, case, fixture_arrays):
    payload, out = run_case(case)
    expected = fixture_arrays[f"p{index}"]
    assert payload.dtype == np.uint8
    assert payload.tobytes() == expected.tobytes(), (
        f"{case_desc(case)}: compressed stream changed "
        f"({payload.nbytes} vs {expected.nbytes} bytes)")
    if case["codec"] in LOSSY:
        exp_out = fixture_arrays[f"o{index}"]
        assert out.dtype == exp_out.dtype
        assert out.shape == exp_out.shape
        assert np.ascontiguousarray(out).tobytes() == exp_out.tobytes(), (
            f"{case_desc(case)}: decoded array changed")


# -- multi-tile digests --------------------------------------------------------

@pytest.fixture(scope="module")
def multitile_digests():
    with open(MULTITILE_PATH) as fh:
        return json.load(fh)


def test_multitile_digests_match_case_table(multitile_digests):
    assert sorted(multitile_digests) == sorted(
        case_desc(c) for c in multitile_cases())


@pytest.mark.parametrize(
    "case", multitile_cases(), ids=[case_desc(c) for c in multitile_cases()])
def test_multitile_digest(case, multitile_digests):
    """Streams and decoded arrays spanning several kernel tiles (whole
    tiles, one element either side, ragged, 4 Mi elements) keep the
    size and CRC32 they had before the kernels were tiled."""
    assert run_multitile_case(case) == multitile_digests[case_desc(case)]
