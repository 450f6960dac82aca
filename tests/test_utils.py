"""Unit tests for units and table formatting."""

import re

import pytest

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
