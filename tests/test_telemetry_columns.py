"""The columnar telemetry path, pinned scenario by scenario.

Spans are recorded, written and read as columns, and metric series are
keyed once.  Six traced scenarios, from a two-rank send to a 68-rank
allgather whose export crosses a span-group boundary, are pinned in
the run layers of ``tests/pins.py`` and in ``exports``: the Chrome JSON
bytes, the ``.rprt`` bytes and both conversions between them.

The trap tests further down cover what a column store can silently get
wrong: meta interning must never merge two metas whose canonical JSON
differs, the string table keeps its first-appearance order over the
*sorted* rows, and ``chrome_time`` keeps Python's rounding.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import rprt as rprt_mod
from repro.analysis.export import (chrome_time, json_safe_meta,
                                   to_chrome_trace, write_chrome_json)
from repro.analysis.metrics import MetricsRegistry
from repro.analysis.profile import CommProfile
from repro.analysis.rprt import RprtReader, write_trace_rprt
from repro.analysis.traceio import convert
from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.sim import Tracer
from repro.utils.units import KiB

from tests import pins
from tests.test_trace_export import golden_rank_fn, run_golden_workload


# -- the six scenarios -------------------------------------------------------

def _ring_allreduce(comm):
    yield from comm.allreduce(make_payload("wave", 512 * KiB, seed=comm.rank),
                              algorithm="ring")


def _small_allgather(comm):
    yield from comm.allgather(make_payload("wave", 4 * KiB, seed=comm.rank))


MPC = CompressionConfig.mpc_opt()
FAMILY = pins.Family("telemetry", {
    "golden-mpc": pins.Scenario(golden_rank_fn, MPC),
    "zfp8-pipe4-pt2pt": pins.Scenario(
        pins.pt2pt,
        CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4)),
    "allreduce16-ring-keep": pins.Scenario(_ring_allreduce, MPC,
                                           ("longhorn", 4, 4)),
    "chaos-drop+corrupt": pins.Scenario(
        pins.pt2pt, MPC,
        faults=FaultPlan(seed=12, drop_rate=0.2, corrupt_rate=0.2)),
    # more than 4,096 spans: the export crosses a group boundary
    "two-groups": pins.Scenario(_small_allgather, CompressionConfig.disabled(),
                                ("longhorn", 17, 4)),
    "golden-mpc-block7": pins.Scenario(golden_rank_fn, MPC,
                                       rprt=(("spans_per_block", 7),)),
}, pins.BASE + ("exports",))


@pytest.mark.parametrize("name", sorted(FAMILY.cells))
def test_scenario_reproduces_the_parent(name):
    assert FAMILY.moved(name) == {}


# -- trap (a): meta interning ------------------------------------------------

#: equal and hash-equal in pairs (or unhashable), yet each exports its
#: own canonical JSON.  The numpy scalars are also byte-equal in pairs
#: (``marshal`` writes them through the buffer protocol, untyped).
_TRICKY = [1, 1.0, True, 0, 0.0, -0.0, False, (1,), (1.0,), (True,),
           ("a", (0.0,)), ("a", (-0.0,)), [1], [1.0], {"k": 1}, {"k": True},
           np.bool_(True), np.uint8(1), np.int64(0), np.float64(0.0),
           (np.bool_(True),), (np.uint8(1),)]


def _canon(meta: dict) -> str:
    return json.dumps(json_safe_meta(meta), sort_keys=True,
                      separators=(",", ":"))


def _meta_tracer():
    tr = Tracer()
    for rep in range(2):  # every meta twice: equal ones may share
        for i, v in enumerate(_TRICKY):
            tr.span(float(i), float(i) + 0.5, "k", f"s{i}", rank=0, v=v,
                    n=rep)
    return tr


def test_meta_interning_never_merges_distinct_json(tmp_path):
    tr = _meta_tracer()
    want = [{"v": v, "n": rep} for rep in range(2) for v in _TRICKY]
    got = [r.meta for r in tr.records]
    assert [repr(m) for m in got] == [repr(m) for m in want]
    # ... and through the writer: the file's meta strings are the
    # per-span canonical JSON, not those of whichever meta came first.
    write_trace_rprt(tr, tmp_path / "t.rprt")
    with RprtReader(tmp_path / "t.rprt") as r:
        strings = r.strings()
        stored = {int(s): strings[int(m)]
                  for g in range(r.n_span_groups)
                  for s, m in zip(r.read(f"spans/{g}/span_id"),
                                  r.read(f"spans/{g}/meta"))}
    assert stored == {r.span_id: _canon(r.meta) for r in tr.records}


def test_numpy_scalars_are_never_interned():
    """Each gets its own entry — what the exporter does with a numpy
    value depends on its type, which a marshal image does not carry."""
    tr = Tracer()
    for v in (np.uint8(1), np.uint8(1), np.bool_(True), (np.uint8(1),)):
        tr.span(0.0, 1.0, "k", v=v)
    assert len(tr.columns.metas) == 1 + 4
    assert [_canon(r.meta) for r in tr.records] == \
        ['{"v":1}', '{"v":1}', '{"v":true}', '{"v":[1]}']


def test_equal_metas_share_one_entry():
    tr = Tracer()
    for _ in range(50):
        tr.span(0.0, 1.0, "network", "x", nbytes=4096, link="a",
                links=("a", "b"))
        tr.span(0.0, 1.0, "pool", "hit")
    assert len(tr.columns.metas) == 2  # the empty meta and the wire one
    recs = tr.records
    assert recs[0].meta is recs[2].meta
    assert recs[0].meta == {"nbytes": 4096, "link": "a", "links": ("a", "b")}
    assert recs[1].meta == {}


def test_no_analysis_pass_writes_to_a_shared_meta(tmp_path):
    """Records of equal metas share one dict (the tracer's is the one
    the writer encodes), so every reader must leave ``rec.meta`` alone:
    the sanitizer, the critical path, the profile and both exporters run
    over the live tracer and over its file without changing a meta."""
    from repro.analysis import CritPathAnalyzer
    from repro.analysis.traceio import load_trace_records
    from repro.check.sanitize import TraceSanitizer

    res = FAMILY.cells["zfp8-pipe4-pt2pt"].observe().out
    tr = res.tracer
    write_trace_rprt(tr, tmp_path / "t.rprt", elapsed=res.elapsed)
    loaded = load_trace_records(tmp_path / "t.rprt")
    for source in (tr, loaded):
        records = source.records
        assert len({id(r.meta) for r in records}) < len(records)  # shared
        before = repr([r.meta for r in records])
        assert TraceSanitizer(records).check_all() == []
        analyzer = CritPathAnalyzer(source)
        assert analyzer.messages() and analyzer.aggregate_attribution()
        CommProfile.from_records(records, res.elapsed).as_dict()
        to_chrome_trace(tr)
        write_trace_rprt(tr, tmp_path / "again.rprt", elapsed=res.elapsed)
        assert repr([r.meta for r in records]) == before


def test_key_order_is_part_of_a_metas_identity():
    tr = Tracer()
    tr.span(0.0, 1.0, "k", a=1, b=2)
    tr.span(0.0, 1.0, "k", b=2, a=1)
    assert [list(r.meta) for r in tr.records] == [["a", "b"], ["b", "a"]]


def test_unhashable_and_unmarshallable_metas_still_record():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    big = np.arange(6.0).reshape(2, 3)
    tr = Tracer()
    tr.span(0.0, 1.0, "k", "array", data=big)
    tr.span(0.0, 1.0, "k", "list", data=[1, 2], more={"x": [3]})
    tr.span(0.0, 1.0, "k", "object", data=Opaque())
    tr.span(0.0, 1.0, "k", "object", data=Opaque())
    a, b, c, d = tr.records
    assert a.meta["data"] is big
    assert b.meta == {"data": [1, 2], "more": {"x": [3]}}
    assert c.meta is not d.meta and repr(c.meta["data"]) == "<opaque>"


def test_json_converter_keeps_number_types_apart(tmp_path):
    """JSON -> RPRT -> JSON with args 1 / 1.0 / true on otherwise
    identical events: the converter interns metas too.  The document is
    written by hand, so no tracer has touched its metas."""
    events = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
               "args": {"name": "rank 0"}},
              {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
               "args": {"name": "main"}}]
    for i, v in enumerate((1, 1.0, True, 0.0, -0.0, [1], [1.0], 1)):
        events.append({"name": "s", "cat": "k", "ph": "X", "pid": 0, "tid": 0,
                       "ts": float(i), "dur": 1.0,
                       "args": {"span_id": i + 1, "v": v}})
    with open(tmp_path / "a.json", "w") as fh:
        write_chrome_json(fh, {"metrics": {}}, events)
    convert(tmp_path / "a.json", tmp_path / "a.rprt")
    convert(tmp_path / "a.rprt", tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == \
        (tmp_path / "a.json").read_bytes()
    with RprtReader(tmp_path / "a.rprt") as r:
        metas = [s for s in r.strings() if s.startswith("{")]
    assert len(metas) == len(set(metas)) == 7  # the two ``1`` share


# -- trap (b): string-table order --------------------------------------------

def _reference_strings(tracer) -> list:
    """The string table as the row-at-a-time writer built it: first
    appearance, row-major over category, label, track, meta of the
    time-sorted records, ``""`` first."""
    table = [""]
    for r in sorted(tracer.records,
                    key=lambda r: (r.t_start, r.t_end, r.span_id)):
        label = r.label if r.label != r.category else ""
        meta = _canon(r.meta) if r.meta else ""
        for s in (r.category, label, r.track or "main", meta):
            if s not in table:
                table.append(s)
    return table


def test_string_table_order_follows_the_sorted_rows(tmp_path):
    tr = Tracer()
    # Recorded late-to-early, so intern ids run against file order.
    tr.span(5.0, 6.0, "zeta", "zeta", rank=1, track="gpu", seq=2)
    tr.span(3.0, 4.0, "alpha", "main", rank=0)             # track None
    tr.span(3.0, 3.5, "alpha", '{"seq":2}', rank=0, track="main")
    tr.span(1.0, 2.0, "gpu", "late", track="link:a+b", nbytes=7)
    tr.span(1.0, 2.0, "beta", "", rank=2, track="stream0", seq=2)
    tr.span(0.0, 9.0, "late", "alpha", rank=0, track="zeta")
    write_trace_rprt(tr, tmp_path / "t.rprt", spans_per_block=4)
    want = _reference_strings(tr)
    assert want[0] == "" and len(want) == len(set(want))
    with RprtReader(tmp_path / "t.rprt") as r:
        assert r.strings() == want
        got = sorted(r.spans(), key=lambda x: x.span_id)
    for a, b in zip(got, tr.records):
        label = b.label if b.label != b.category else ""
        assert (a.category, a.label, a.track, a.meta) == \
            (b.category, label, b.track or "main", json_safe_meta(b.meta))


# -- trap (c): chrome_time keeps Python's rounding ---------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=40))
def test_stored_times_are_the_exporters(tmp_path_factory, spans):
    tr = Tracer()
    for t0, dur in spans:
        tr.span(t0, t0 + dur, "k", rank=0)
    path = tmp_path_factory.mktemp("ct") / "t.rprt"
    write_trace_rprt(tr, path)
    xs = [e for e in to_chrome_trace(tr)["traceEvents"] if e["ph"] == "X"]
    with RprtReader(path) as r:
        ts = r.read("spans/0/ts_us").tolist()
        dur = r.read("spans/0/dur_us").tolist()
    # bit for bit (repr), which == on floats would not show for -0.0
    assert [repr(x) for x in ts] == [repr(e["ts"]) for e in xs]
    assert [repr(x) for x in dur] == [repr(e["dur"]) for e in xs]
    recs = sorted(tr.records, key=lambda r: (r.t_start, r.t_end, r.span_id))
    assert ts == [chrome_time(r.t_start) for r in recs]


# -- metric series keys ------------------------------------------------------

_SERIES = [("wire.bytes", {"link": "a"}), ("wire.bytes", {"link": "b"}),
           ("mpi.sends", {"protocol": "eager"}), ("plain", {}),
           ("two", {"rank": 3, "device": 1})]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["inc", "observe", "set_max"]),
    st.integers(min_value=0, max_value=len(_SERIES) - 1),
    st.integers(min_value=0, max_value=1000),
    st.booleans()), max_size=60))
def test_key_and_name_updates_are_the_same_series(ops):
    by_name, mixed = MetricsRegistry(), MetricsRegistry()
    for op, i, value, use_key in ops:
        name, labels = _SERIES[i]
        getattr(by_name, op)(name, value, **labels)
        if use_key:
            getattr(mixed, op)(MetricsRegistry.key(name, **labels), value)
        else:
            getattr(mixed, op)(name, value, **labels)
    assert json.dumps(mixed.as_dict()) == json.dumps(by_name.as_dict())
    assert list(mixed._counters) == list(by_name._counters)
    assert list(mixed._gauges) == list(by_name._gauges)
    assert list(mixed._hists) == list(by_name._hists)


def test_negative_increment_names_the_series():
    m = MetricsRegistry()
    with pytest.raises(ValueError, match="'wire.bytes'"):
        m.inc(m.key("wire.bytes", link="a"), -1)


# -- tracer.records is a cache over the columns ------------------------------

def test_records_cache():
    tr = Tracer()
    assert tr.records == [] and len(tr.columns) == 0
    tr.span(0.0, 1.0, "a")
    tr.span(1.0, 2.0, "b", rank=3)
    first = tr.records
    assert [r.category for r in first] == ["a", "b"]
    assert tr.records is first and tr.records[0] is first[0]  # kept
    kept = list(first)
    h = tr.begin("c", t=2.0)
    assert len(tr.records) == 2  # an open span is not a row yet
    tr.end(h, t=3.0)
    again = tr.records  # the append is seen, the decoded rows are kept
    assert [r.category for r in again] == ["a", "b", "c"]
    assert again[0] is kept[0] and again[1] is kept[1]
    tr.clear()
    assert tr.records == [] and len(tr.columns) == 0
    tr.span(0.0, 1.0, "d")
    assert [r.category for r in tr.records] == ["d"]


# -- the tracer lets go of finished processes --------------------------------

def _three_message_kinds(comm):
    big = make_payload("wave", 512 * KiB, seed=comm.rank)
    if comm.rank == 0:
        yield from comm.send(big, 1, tag=1)
    elif comm.rank == 1:
        yield from comm.recv(0, tag=1)
    yield from comm.allgather(make_payload("wave", 256 * KiB, seed=comm.rank))


@pytest.mark.parametrize("config", [
    CompressionConfig.mpc_opt(),
    CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4),
], ids=["mpc-opt-keep", "zfp8-pipe4"])
def test_tracer_drops_finished_processes(config):
    res = Cluster("longhorn", 2, 2).run(_three_message_kinds, config=config)
    tr = res.tracer
    assert len(tr.records) > 50
    assert tr._stacks == {} and tr._inherited == {}


def test_open_span_of_a_dead_process_is_dropped_with_it():
    from repro.sim import Simulator

    sim = Simulator()
    tr = Tracer(sim)

    def leaky(sim):
        tr.begin("pipeline", "never-ended", rank=0)
        sim.process(child(sim))
        yield sim.timeout(1.0)

    def child(sim):
        yield sim.timeout(2.0)

    sim.process(leaky(sim))
    sim.run()
    assert tr._stacks == {} and tr._inherited == {}


# -- one open, lazy strings --------------------------------------------------

def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kw):
        calls.append(args)
        return real(self, *args, **kw)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_profile_ingests_through_one_reader(tmp_path, monkeypatch):
    res = run_golden_workload()
    write_trace_rprt(res.tracer, tmp_path / "t.rprt", elapsed=res.elapsed)
    opens = _count_calls(monkeypatch, rprt_mod.RprtReader, "__init__")
    prof = CommProfile.from_trace_file(tmp_path / "t.rprt")
    assert len(opens) == 1
    assert prof.elapsed == res.elapsed and prof.n_messages > 0


def test_skipped_groups_decode_no_strings(tmp_path, monkeypatch):
    res = run_golden_workload()
    write_trace_rprt(res.tracer, tmp_path / "t.rprt", elapsed=res.elapsed)
    reads = _count_calls(monkeypatch, rprt_mod.RprtReader, "read")
    with RprtReader(tmp_path / "t.rprt") as r:
        assert list(r.spans(time_range=(1e6, 2e6))) == []
        assert reads == []
        assert len(list(r.spans())) == r.n_spans
        n_string_reads = sum(a[0].startswith("strings/") for a in reads)
        list(r.spans(track="main"))
    assert n_string_reads == 2  # offsets + blob, once per reader
    assert sum(a[0].startswith("strings/") for a in reads) == 2

