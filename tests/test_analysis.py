"""Reporting helpers."""

import pytest

from repro.analysis.scorecard import reduction_pct


def test_reduction_pct():
    assert reduction_pct(100.0, 37.5) == pytest.approx(62.5)
    assert reduction_pct(100.0, 100.0) == 0.0
    assert reduction_pct(100.0, 150.0) == pytest.approx(-50.0)
    assert reduction_pct(0.0, 5.0) == 0.0
