"""Every trace-reading pass, pinned to the commit before ISSUE 20.

ISSUE 20 put one read model (``repro.sim.trace.Trace``) under the
sanitizer, the happens-before engine and the critical-path analyzer,
claiming no change to any finding, path or report.  ``PINS`` below was
captured from the commit *before* that change (``python -m
tests.test_trace_model_pins`` prints the table) and nothing was
regenerated after it; the calls below are spelled so that this file
runs unchanged on that commit too.  Per scenario and source — the live
tracer, the same run after an RPRT round trip, a committed golden, or
a hand-built fixture list — four digests:

``findings``  ``[v.as_dict() for v in TraceSanitizer.check_all() +
              HBChecker.check_all()]``
``paths``     ``CritPathAnalyzer.messages()`` / ``collectives()`` as
              segment tuples
``report``    ``explain()`` text and ``aggregate_attribution()``
``profile``   ``CommProfile.as_dict()``
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import CommProfile, CritPathAnalyzer
from repro.analysis.bench import named_config
from repro.analysis.rprt import write_trace_rprt
from repro.analysis.traceio import load_trace_records
from repro.check import fixtures
from repro.check.hb import HBChecker
from repro.check.sanitize import TraceSanitizer
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core import CompressionConfig
from repro.errors import CollectiveAbortedError
from repro.faults import FaultPlan
from repro.faults.plan import RankFailure
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

DATA = Path(__file__).parent / "data"
GOLDENS = {"golden-json": DATA / "golden_trace_mpc.json",
           "golden-rprt": DATA / "golden_trace_mpc.rprt"}


# -- live scenarios -----------------------------------------------------------

def _pingpong(config, faults=None, sends=1):
    data = make_payload("omb", 1 * MiB, seed=1)

    def rank_fn(comm):
        for i in range(sends):
            if comm.rank == 0:
                yield from comm.send(data, dest=1, tag=2 * i)
                yield from comm.recv(source=1, tag=2 * i + 1)
            else:
                got = yield from comm.recv(source=0, tag=2 * i)
                yield from comm.send(got, dest=0, tag=2 * i + 1)

    return Cluster("longhorn", 2, 1).run(rank_fn, config=config, faults=faults)


def _collective(op, faults=None):
    data = make_payload("dataset:msg_sppm", 1 * MiB, seed=1)

    def rank_fn(comm):
        if op == "bcast":
            yield from comm.bcast(data if comm.rank == 0 else None, root=0)
        elif op == "allgather":
            yield from comm.allgather(data)
        else:
            yield from comm.allreduce(data)

    return Cluster("longhorn", 2, 2).run(
        rank_fn, config=CompressionConfig.mpc_opt(), faults=faults)


def _kill_and_shrink():
    def rank_fn(comm):
        data = np.full(1 << 14, 1.0, dtype=np.float32)
        try:
            for _ in range(4):
                data = yield from comm.allreduce(data)
        except CollectiveAbortedError:
            small = yield from comm.shrink()
            data = yield from small.allreduce(data)

    plan = FaultPlan(seed=1, rank_failures=(RankFailure(rank=2, at_time=3e-5),))
    return Cluster("longhorn", 2, 2).run(
        rank_fn, config=CompressionConfig.mpc_opt(), faults=plan)


def _allgather_64():
    """The traced run of perfbench's ``trace-pipeline`` workload."""
    blocks = [make_payload("random", 4 * KiB, seed=r) for r in range(64)]

    def rank_fn(comm):
        yield from comm.allgather(blocks[comm.rank])

    return Cluster("fat-tree", 16, 4).run(
        rank_fn, config=CompressionConfig.disabled())


LIVE = {
    "pt2pt-mpc-opt": lambda: _pingpong(named_config("mpc-opt")),
    "pt2pt-zfp8": lambda: _pingpong(named_config("zfp8")),
    "pt2pt-zfp8-pipe": lambda: _pingpong(named_config("zfp8-pipe")),
    "allgather-4": lambda: _collective("allgather"),
    "allreduce-4": lambda: _collective("allreduce"),
    "bcast-4": lambda: _collective("bcast"),
    # six sends, seq 1 retransmitted after a corrupted first attempt
    "chaos-pt2pt": lambda: _pingpong(
        named_config("mpc-opt"), FaultPlan(seed=3, corrupt_rate=0.4), sends=3),
    "chaos-bcast": lambda: _collective(
        "bcast", FaultPlan(seed=3, corrupt_rate=0.25, drop_rate=0.1)),
    "kill-shrink": _kill_and_shrink,
    "allgather-64": _allgather_64,
}

FIXTURES = ("overlap_records", "acausal_records", "bad_collective_records",
            "bad_liveness_records", "message_race_records",
            "deadlock_records", "bad_wire_records")


# -- digests ------------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _segments(path) -> tuple:
    return tuple((s.t_start, s.t_end, s.kind, s.span.span_id, s.step)
                 for s in path.segments)


def _observe(sanitizer, hb, analyzer, profile) -> dict:
    findings = [v.as_dict() for v in sanitizer.check_all() + hb.check_all()]
    paths = (
        [(m.seq, m.src, m.dst, m.nbytes, m.wire_nbytes, m.t_start, m.t_end,
          _segments(m)) for m in analyzer.messages()],
        [(c.label, c.rank, c.t_start, c.t_end, _segments(c))
         for c in analyzer.collectives()])
    return {
        "findings": _digest(json.dumps(findings, sort_keys=True)),
        "paths": _digest(paths),
        "report": _digest((analyzer.explain(),
                           analyzer.aggregate_attribution())),
        "profile": _digest(json.dumps(profile.as_dict(), sort_keys=True)),
    }


def _observe_file(path) -> dict:
    return _observe(TraceSanitizer.from_trace_file(path),
                    HBChecker.from_trace_file(path),
                    CritPathAnalyzer(load_trace_records(path)),
                    CommProfile.from_trace_file(path))


def _observe_live(name: str, tmp_dir) -> dict:
    """``{"tracer": ..., "rprt": ...}`` for one live scenario: read off
    the tracer, then exported (which stamps ``telemetry.*`` metrics on
    the registry, hence the order) and read back."""
    GLOBAL_CODEC_CACHE.clear()
    res = LIVE[name]()
    records = list(res.tracer.records)
    out = {"tracer": _observe(TraceSanitizer(records), HBChecker(records),
                              CritPathAnalyzer(res.tracer),
                              CommProfile.from_result(res))}
    path = Path(tmp_dir) / f"{name}.rprt"
    write_trace_rprt(res.tracer, path, elapsed=res.elapsed)
    out["rprt"] = _observe_file(path)
    return out


def _observe_fixture(name: str) -> dict:
    records = getattr(fixtures, name)()
    return _observe(TraceSanitizer(records), HBChecker(records),
                    CritPathAnalyzer(SimpleNamespace(records=records)),
                    CommProfile.from_records(records, elapsed=0.0))


PINS = {
    "golden-json":
        {"findings": "47db3da7eb4c", "paths": "167b5077a1bf",
         "report": "676f9febb469", "profile": "dee69b1918ac"},
    "golden-rprt":
        {"findings": "47db3da7eb4c", "paths": "167b5077a1bf",
         "report": "676f9febb469", "profile": "dee69b1918ac"},
    "pt2pt-mpc-opt": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "26319cd26059",
                   "report": "e9227d5727e4", "profile": "7c61eefe5aa8"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "f110f1cd441b",
                 "report": "13e30f3b3b05", "profile": "b9e232f3d5ed"},
    },
    "pt2pt-zfp8": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "40d935fab8e0",
                   "report": "bab790ac1093", "profile": "32b1d688e455"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "7048b154ff48",
                 "report": "c9d9fe74fb41", "profile": "ed202605e749"},
    },
    "pt2pt-zfp8-pipe": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "a84725db49f3",
                   "report": "c760e9824413", "profile": "3fb395f9893e"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "6ff41c378696",
                 "report": "79869828da53", "profile": "e0ed7c1fdcff"},
    },
    "allgather-4": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "4e96b08a6a06",
                   "report": "08b6cf4c0244", "profile": "a7445f7f1fa7"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "8193b582b1ee",
                 "report": "9ad1ae8f4ac1", "profile": "aefbbf6c0491"},
    },
    "allreduce-4": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "a90288d59964",
                   "report": "4821a363d5f8", "profile": "0e0ae50f2587"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "96a28ce39a71",
                 "report": "094bbe755b02", "profile": "700a0f22a1cd"},
    },
    "bcast-4": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "630b0b972a84",
                   "report": "a5b622a32f1b", "profile": "b12c5ce4ea97"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "29d97bab213c",
                 "report": "33e0ff3a2fc6", "profile": "bc20cc03ed33"},
    },
    "chaos-pt2pt": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "55f7b79890b2",
                   "report": "9b97497b74bb", "profile": "02db2a59a7c3"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "f456baaf71df",
                 "report": "ae20d0b44251", "profile": "0e5762f023c2"},
    },
    "chaos-bcast": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "edb21bcdb484",
                   "report": "8234355984ac", "profile": "c55e08eebc1c"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "1bd9c6b2af5b",
                 "report": "fbac88f27223", "profile": "f497ede554c6"},
    },
    "kill-shrink": {
        "tracer": {"findings": "a938525ef87e", "paths": "f06893abb7b4",
                   "report": "dcaf926ad4d4", "profile": "1c58cd81e7a3"},
        "rprt": {"findings": "7659da84e480", "paths": "cbcdfb5d7291",
                 "report": "1f6cf193fa6e", "profile": "6967c258187b"},
    },
    "allgather-64": {
        "tracer": {"findings": "47db3da7eb4c", "paths": "81d63a5aa245",
                   "report": "45ac6ede1c8c", "profile": "ce0ba55fa12e"},
        "rprt": {"findings": "47db3da7eb4c", "paths": "0f93c6031f18",
                 "report": "45ac6ede1c8c", "profile": "63253ed89e8f"},
    },
    "overlap_records":
        {"findings": "e250ef0b2d83", "paths": "1391876e6368",
         "report": "45ac6ede1c8c", "profile": "27d51b2170a4"},
    "acausal_records":
        {"findings": "b36f8fb9c2db", "paths": "f8d83780610d",
         "report": "0fa8281112b7", "profile": "7ec1066062e2"},
    "bad_collective_records":
        {"findings": "c7796712789f", "paths": "3dfb1541e717",
         "report": "f0aad899f2c1", "profile": "b8fc0841a2f7"},
    "bad_liveness_records":
        {"findings": "ee3b4112015b", "paths": "b91654291adc",
         "report": "1de5d2383b11", "profile": "1ab0776ec2c8"},
    "message_race_records":
        {"findings": "6386f8de6e50", "paths": "3d356c06ae70",
         "report": "ef497830fb02", "profile": "beb002c8ceab"},
    "deadlock_records":
        {"findings": "f03f7359d062", "paths": "299a4e7dbd0c",
         "report": "ae790ec9bb8f", "profile": "ea70015a7d79"},
    "bad_wire_records":
        {"findings": "c395d25ebf68", "paths": "1a96a9e8ee43",
         "report": "45ac6ede1c8c", "profile": "cd126e1adce8"},
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_reports_match_the_parent(name):
    assert _observe_file(GOLDENS[name]) == PINS[name]


@pytest.mark.parametrize("name", sorted(LIVE))
def test_live_reports_match_the_parent(name, tmp_path):
    assert _observe_live(name, tmp_path) == PINS[name]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reports_match_the_parent(name):
    assert _observe_fixture(name) == PINS[name]


def test_every_record_fixture_is_pinned():
    listed = {name for name in fixtures.__all__ if name.endswith("_records")}
    # ISSUE 20's own fixture: its finding *is* the one behaviour change
    assert listed - {"early_retry_records"} == set(FIXTURES)


if __name__ == "__main__":  # pragma: no cover - pin capture
    import tempfile

    table = {name: _observe_file(path) for name, path in GOLDENS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name in LIVE:
            table[name] = _observe_live(name, tmp)
    for name in FIXTURES:
        table[name] = _observe_fixture(name)
    print("PINS = " + json.dumps(table, indent=4))
