"""Unit tests for CompressionConfig and the partition tuner."""

import importlib
from pathlib import Path

import pytest

from repro.compression.perfmodel import MPC_V100
from repro.core import CompressionConfig, partitions_for_message
from repro.errors import ConfigError
from repro.utils.units import KiB, MiB


def test_disabled():
    cfg = CompressionConfig.disabled()
    assert not cfg.enabled
    assert cfg.label == "Baseline (No compression)"


def test_naive_mpc_flags():
    cfg = CompressionConfig.naive_mpc()
    assert cfg.enabled and cfg.algorithm == "mpc"
    assert not cfg.use_buffer_pool
    assert not cfg.use_gdrcopy
    assert cfg.partitions == 1
    assert "naive" in cfg.label


def test_naive_zfp_flags():
    cfg = CompressionConfig.naive_zfp(rate=8)
    assert cfg.zfp_rate == 8
    assert not cfg.cache_device_attrs
    assert "naive" in cfg.label and "rate:8" in cfg.label


def test_mpc_opt_flags():
    cfg = CompressionConfig.mpc_opt()
    assert cfg.use_buffer_pool and cfg.use_gdrcopy
    assert cfg.partitions == 0  # auto
    assert cfg.label == "MPC-OPT"


def test_zfp_opt_flags():
    cfg = CompressionConfig.zfp_opt(rate=4)
    assert cfg.cache_device_attrs
    assert cfg.label == "ZFP-OPT (rate:4)"


def test_with_override():
    cfg = CompressionConfig.mpc_opt().with_(partitions=4, threshold=1 * MiB)
    assert cfg.partitions == 4 and cfg.threshold == 1 * MiB


def test_validation():
    with pytest.raises(ConfigError):
        CompressionConfig(algorithm="lz4")
    with pytest.raises(ConfigError):
        CompressionConfig(threshold=-1)
    with pytest.raises(ConfigError):
        CompressionConfig(partitions=-1)
    with pytest.raises(ConfigError):
        CompressionConfig(zfp_rate=2)
    with pytest.raises(ConfigError):
        CompressionConfig(mpc_dimensionality=0)


def test_frozen():
    cfg = CompressionConfig.disabled()
    with pytest.raises(Exception):
        cfg.enabled = True


# -- tuning ------------------------------------------------------------------

def test_partition_schedule_monotone():
    sizes = [64 * KiB, 256 * KiB, 1 * MiB, 2 * MiB, 8 * MiB, 32 * MiB, 128 * MiB]
    parts = [partitions_for_message(s) for s in sizes]
    assert parts == sorted(parts)
    assert parts[0] == 1
    assert parts[-1] >= 8


def test_partition_schedule_boundaries():
    assert partitions_for_message(128 * KiB) == 1
    assert partitions_for_message(128 * KiB + 1) == 2
    assert partitions_for_message(4 * MiB) == 4
    assert partitions_for_message(4 * MiB + 1) == 8


@pytest.fixture
def sweep_partitions(monkeypatch):
    """The tuning sweep lives with its one caller, the partitions
    ablation benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmarks"))
    return importlib.import_module("bench_ablation_partitions").sweep_partitions


def test_sweep_prefers_more_partitions_for_big_messages(sweep_partitions):
    sweep = sweep_partitions(MPC_V100, 32 * MiB, 80)
    assert sweep[8] < sweep[1]


def test_sweep_prefers_fewer_partitions_for_small_messages(sweep_partitions):
    sweep = sweep_partitions(MPC_V100, 64 * KiB, 80)
    assert sweep[1] < sweep[16]
