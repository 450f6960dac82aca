"""Every trace-reading pass, pinned source by source.

The sanitizer, the happens-before engine and the critical-path analyzer
share one read model (``repro.sim.trace.Trace``).  The ``reports``
layer of ``tests/pins.py`` pins what they and the profile make of each
source: both committed goldens, ten live scenarios (read off the tracer
and again after an RPRT round trip, beside the run layers) and every
known-bad record fixture.  The digests were taken from runs that
reproduced the reports captured before the read model existed.
"""

from pathlib import Path

import pytest

from repro.analysis.bench import named_config
from repro.check import fixtures
from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

from tests import pins

DATA = Path(__file__).parent / "data"
GOLDENS = {"golden-json": DATA / "golden_trace_mpc.json",
           "golden-rprt": DATA / "golden_trace_mpc.rprt"}


# -- live scenarios -----------------------------------------------------------

def _pingpong(sends=1):
    def rank_fn(comm):
        data = make_payload("omb", 1 * MiB, seed=1)
        for i in range(sends):
            if comm.rank == 0:
                yield from comm.send(data, dest=1, tag=2 * i)
                yield from comm.recv(source=1, tag=2 * i + 1)
            else:
                got = yield from comm.recv(source=0, tag=2 * i)
                yield from comm.send(got, dest=0, tag=2 * i + 1)
    return rank_fn


def _collective(op):
    def rank_fn(comm):
        data = make_payload("dataset:msg_sppm", 1 * MiB, seed=1)
        if op == "bcast":
            yield from comm.bcast(data if comm.rank == 0 else None, root=0)
        else:
            yield from getattr(comm, op)(data)
    return rank_fn


def _allgather_64(comm):
    """The traced run of perfbench's ``trace-pipeline`` workload."""
    yield from comm.allgather(make_payload("random", 4 * KiB, seed=comm.rank))


MPC = CompressionConfig.mpc_opt()
QUAD = ("longhorn", 2, 2)
LIVE = {
    "pt2pt-mpc-opt": pins.Scenario(_pingpong(), named_config("mpc-opt")),
    "pt2pt-zfp8": pins.Scenario(_pingpong(), named_config("zfp8")),
    "pt2pt-zfp8-pipe": pins.Scenario(_pingpong(), named_config("zfp8-pipe")),
    "allgather-4": pins.Scenario(_collective("allgather"), MPC, QUAD),
    "allreduce-4": pins.Scenario(_collective("allreduce"), MPC, QUAD),
    "bcast-4": pins.Scenario(_collective("bcast"), MPC, QUAD),
    # six sends, seq 1 retransmitted after a corrupted first attempt
    "chaos-pt2pt": pins.Scenario(_pingpong(sends=3), named_config("mpc-opt"),
                                 faults=FaultPlan(seed=3, corrupt_rate=0.4)),
    "chaos-bcast": pins.Scenario(
        _collective("bcast"), MPC, QUAD,
        FaultPlan(seed=3, corrupt_rate=0.25, drop_rate=0.1)),
    "allgather-64": pins.Scenario(_allgather_64, CompressionConfig.disabled(),
                                  ("fat-tree", 16, 4)),
}

FIXTURES = ("overlap_records", "acausal_records", "bad_collective_records",
            "message_race_records", "deadlock_records", "bad_wire_records")

FAMILY = pins.Family("trace-model", {
    **{name: pins.Recorded(path) for name, path in GOLDENS.items()},
    **LIVE,
    **{name: pins.Recorded(getattr(fixtures, name)) for name in FIXTURES},
}, pins.BASE + ("reports",))


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_reports_match_the_parent(name):
    assert FAMILY.moved(name) == {}


@pytest.mark.parametrize("name", sorted(LIVE))
def test_live_reports_match_the_parent(name):
    assert FAMILY.moved(name) == {}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reports_match_the_parent(name):
    assert FAMILY.moved(name) == {}


def test_every_record_fixture_is_pinned():
    listed = {name for name in fixtures.__all__ if name.endswith("_records")}
    # the read model's own fixture: its finding *is* the one behaviour change
    assert listed - {"early_retry_records"} == set(FIXTURES)

