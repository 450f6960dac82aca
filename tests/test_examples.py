"""Smoke tests: every example script must run cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_examples_exist():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "awp_weak_scaling.py", "dask_transpose_sum.py",
            "dataset_compression_survey.py", "collectives_on_datasets.py"} <= names


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Baseline (No compression)" in out
    assert "MPC-OPT" in out


def test_dataset_survey():
    out = run_example("dataset_compression_survey.py")
    assert "msg_sppm" in out and "CR-MPC" in out


@pytest.mark.slow
def test_awp_example():
    out = run_example("awp_weak_scaling.py", timeout=600)
    assert "GFLOP/s" in out
    assert "bit-identical to baseline: True" in out


@pytest.mark.slow
def test_dask_example():
    out = run_example("dask_transpose_sum.py")
    assert "speedup" in out


@pytest.mark.slow
def test_collectives_example():
    out = run_example("collectives_on_datasets.py")
    assert "msg_sppm" in out and "MPC gain" in out
