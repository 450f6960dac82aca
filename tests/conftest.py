"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.gpu.spec import V100
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.sim import Simulator, Tracer


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def traced_sim():
    s = Simulator()
    Tracer(s)
    return s


@pytest.fixture
def device(traced_sim):
    return Device(traced_sim, V100, device_id=0)


@pytest.fixture
def two_node_cluster():
    """Two single-GPU nodes over IB EDR (Longhorn-style)."""
    return Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)


def smooth_f32(n: int, seed: int = 0) -> np.ndarray:
    """A compressible float32 signal."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n).astype(np.float32) * 1e-3).astype(np.float32)


@pytest.fixture
def smooth_signal():
    return smooth_f32(100_000)


@pytest.fixture(params=["production-tile", "tiny-tile"])
def tile(request, monkeypatch):
    """Run a codec test at the production tile size and at one of a few
    blocks, so that small arrays cross many tile boundaries."""
    from repro.compression import mpc, zfp

    if request.param == "tiny-tile":
        monkeypatch.setattr(zfp, "_TILE_BYTES", 256)    # 16 f32 / 8 f64 blocks
        monkeypatch.setattr(mpc, "_TILE_BYTES", 1024)   # 8 u32 / 2 u64 blocks
    return request.param
