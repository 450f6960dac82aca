"""Unit tests for units, table formatting and CRC combination."""

import re
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    GB,
    GiB,
    KiB,
    MiB,
    Gbps,
    GBps,
    us,
    fmt_bytes,
    fmt_time,
    format_table,
    parse_size,
)
from repro.utils.integrity import crc32_of_parts


def test_unit_constants():
    assert GB == 1_000_000_000
    assert KiB == 1024
    assert MiB == 1024 ** 2
    assert GiB == 1024 ** 3


def test_bandwidth_converters():
    assert GBps(12.5) == pytest.approx(12.5e9)
    assert Gbps(100) == pytest.approx(12.5e9)  # IB EDR: 100 Gb/s = 12.5 GB/s


def test_us():
    assert us(20) == pytest.approx(20e-6)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("4M", 4 * MiB),
        ("256K", 256 * KiB),
        ("1G", GiB),
        ("512KiB", 512 * KiB),
        ("2MiB", 2 * MiB),
        ("4096", 4096),
        (8192, 8192),
        ("1.5M", int(1.5 * MiB)),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


def test_parse_size_invalid():
    with pytest.raises(ValueError):
        parse_size("4Q")


@pytest.mark.parametrize("text", ["1.5", "0.3K", ".1K", -4, "1.2.3M", "-4K"])
def test_parse_size_rejects_what_is_not_a_whole_byte_count(text):
    """A fraction of a byte or a negative size is an error naming the
    text, not a silently truncated count or float()'s own message."""
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_size(text)


def test_parse_size_takes_whole_fractions_of_a_unit():
    assert parse_size("0.5M") == 524288
    assert parse_size("1.25KiB") == 1280
    assert parse_size(0) == 0


def test_fmt_bytes_osu_labels():
    assert fmt_bytes(256 * KiB) == "256K"
    assert fmt_bytes(32 * MiB) == "32M"
    assert fmt_bytes(GiB) == "1G"
    assert fmt_bytes(1000) == "1000"


def test_fmt_bytes_roundtrip_with_parse():
    for n in (256 * KiB, MiB, 32 * MiB):
        assert parse_size(fmt_bytes(n)) == n


def test_fmt_time_scales():
    assert fmt_time(5e-9).endswith("ns")
    assert fmt_time(5e-6).endswith("us")
    assert fmt_time(5e-3).endswith("ms")
    assert fmt_time(5.0).endswith("s")


def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1.5], ["long-name", 22.25]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "1.50" in out and "22.25" in out
    assert set(lines[1]) <= {"-", " "}


def test_format_table_title():
    out = format_table(["x"], [[1]], title="Table 1")
    assert out.splitlines()[0] == "Table 1"


def test_format_table_empty_rows():
    out = format_table(["a", "b"], [])
    assert len(out.splitlines()) == 2


# -- crc32_of_parts: the CRC of a concatenation from its pieces' CRCs ----------

def _pieces(data, cuts):
    """``data`` cut at ``cuts`` (clipped, sorted; a repeated cut or one
    at either end makes an empty piece)."""
    bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=4096),
       cuts=st.lists(st.integers(0, 4096), max_size=8))
def test_crc32_of_parts_is_the_crc_of_the_concatenation(data, cuts):
    pieces = _pieces(data, cuts)
    assert b"".join(pieces) == data
    assert (crc32_of_parts((zlib.crc32(p), len(p)) for p in pieces)
            == zlib.crc32(data))


def test_crc32_of_parts_of_nothing_and_of_empty_pieces():
    assert crc32_of_parts([]) == zlib.crc32(b"") == 0
    assert crc32_of_parts([(0, 0), (0, 0)]) == 0
    crc = zlib.crc32(b"abc")
    assert crc32_of_parts([(0, 0), (crc, 3), (0, 0)]) == crc


@settings(max_examples=6, deadline=None)
@given(total=st.integers(16 * MiB + 1, 40 * MiB),
       cuts=st.lists(st.integers(0, 40 * MiB), min_size=1, max_size=3))
def test_crc32_of_parts_past_16_mib(total, cuts):
    """Lengths past 16 MiB (the largest message the benchmarks send),
    built from zero-filled pieces."""
    bounds = [0, *sorted(min(c, total) for c in cuts), total]
    lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    assert (crc32_of_parts((zlib.crc32(bytes(n)), n) for n in lengths)
            == zlib.crc32(bytes(total)))
