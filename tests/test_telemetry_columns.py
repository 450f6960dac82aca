"""The columnar telemetry path, pinned scenario by scenario.

Spans are recorded, written and read as columns, and metric series are
keyed once.  Six traced scenarios, from a two-rank send to a 68-rank
allgather whose export crosses a span-group boundary, are pinned in
the run layers of ``tests/pins.py`` and in ``exports``: the Chrome JSON
bytes, the ``.rprt`` bytes and both conversions between them.

The trap tests further down cover what a column store can silently get
wrong: meta interning must never merge two metas whose canonical JSON
differs, the string table keeps its first-appearance order over the
*sorted* rows, and ``chrome_time`` keeps Python's rounding.  The last
sections cover the cheap paths: a network span's memoized ids never
outlive their table and are resolved once per key, the direct metric
writes fold as ``inc``/``observe`` do, and the profile folded from a
file's columns equals the one folded from its records.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import rprt as rprt_mod
from repro.analysis.export import (chrome_events, chrome_time,
                                   exported_form, json_safe_meta,
                                   write_chrome_json, write_chrome_trace)
from repro.analysis.metrics import HistogramStat, MetricsRegistry
from repro.analysis.profile import CommProfile
from repro.analysis.rprt import RprtReader, write_trace_rprt
from repro.analysis.traceio import convert, iter_trace_records, read_otherdata
from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.mpi.cluster import Cluster
from repro.network import topology as topology_mod
from repro.network import Topology, machine_preset
from repro.network.links import LinkSpec
from repro.omb.payload import make_payload
from repro.sim import Simulator, Tracer
from repro.sim import trace as trace_mod
from repro.sim.trace import SPAN_COLUMNS
from repro.utils.units import KiB, MiB

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
        write_chrome_trace(tr, tmp_path / "t.json")
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
    xs = [e for e in chrome_events(exported_form(tr)[1]) if e["ph"] == "X"]
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


def test_rprt_writer_dumps_the_metrics_registry_once(tmp_path, monkeypatch):
    res = run_golden_workload()
    dumps = _count_calls(monkeypatch, MetricsRegistry, "as_dict")
    write_trace_rprt(res.tracer, tmp_path / "t.rprt", elapsed=res.elapsed)
    assert len(dumps) == 1
    other = read_otherdata(tmp_path / "t.rprt")
    assert other["metrics"]["counters"]["telemetry.rprt_bytes_written"] > 0


# -- cached span ids never outlive their table -------------------------------
#
# A network span's string and meta ids are memoized in the tracer's
# ``SpanColumns``, keyed by its route's constants, label and size.  Each
# case below must record what a run that never hits that memo records —
# columns, string table, metas, ``.rprt`` bytes and metrics — and what
# the code before the memo recorded (the digests in ``_CACHE_PINS``).

def _two_allgathers_clearing_between(comm):
    yield from comm.allgather(make_payload("wave", 4 * KiB, seed=comm.rank))
    if comm.rank == 0:
        comm.sim.tracer.clear()
    yield from comm.allgather(make_payload("wave", 4 * KiB, seed=comm.rank + 40))


def _rendezvous_sizes(comm):
    """Five rendezvous messages on one route, two sizes repeated."""
    sizes = (256 * KiB, 1 * MiB, 256 * KiB, 512 * KiB, 1 * MiB)
    for i, n in enumerate(sizes):
        data = make_payload("wave", n, seed=i % 2)
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=i)
        else:
            yield from comm.recv(0, tag=i)


#: 34 ranks on two fat-tree groups: one-, two- and four-link routes
_FAT_TREE = ("fat-tree", 17, 2)
_DISABLED = CompressionConfig.disabled()


def _traced(*results) -> list:
    return [(res.tracer, res.elapsed) for res in results]


def _clear_mid_run():
    return _traced(Cluster(*_FAT_TREE).run(
        _two_allgathers_clearing_between, config=_DISABLED))


def _route_cache_cleared():
    topology_mod._CACHE_MAX = 3  # cache_case_digests restores it
    return _traced(Cluster(*_FAT_TREE).run(_small_allgather, config=_DISABLED))


def _two_runs_one_cluster():
    cluster = Cluster(*_FAT_TREE)
    return _traced(cluster.run(_small_allgather, config=_DISABLED),
                   cluster.run(_small_allgather, config=_DISABLED))


def _link_transfers():
    sim = Simulator()
    tracer = Tracer(sim)
    spec = LinkSpec("IB", 1e-6, 1e10)
    # GPU 0 -> 1 and 0 -> 2 are two one-link routes
    topo = Topology(sim, dataclasses.replace(machine_preset("longhorn"),
                                             intra_link=spec), 1, 3)

    def proc(sim, dst, sizes, label):
        for n in sizes:
            yield from topo.transfer(0, dst, n, label)

    # a repeat, a second label, and sizes equal to 100 but of other types
    sim.process(proc(sim, 1, [100, 200, 100, 100, 100.0, np.int64(100),
                              np.int64(100), 100], ""))
    sim.process(proc(sim, 1, [100, 300, 100], "x"))
    sim.process(proc(sim, 2, [100, 100, 0], ""))
    sim.run()
    return [(tracer, sim.now)]


def _rendezvous_one_route():
    return _traced(Cluster("longhorn", 2, 1).run(_rendezvous_sizes,
                                                 config=MPC))


def _fault_plan():
    return _traced(Cluster("longhorn", 2, 1).run(
        pins.pt2pt, config=MPC,
        faults=FaultPlan(seed=12, drop_rate=0.2, corrupt_rate=0.2)))


CACHE_CASES = {"clear-mid-run": _clear_mid_run,
               "route-cache-cleared": _route_cache_cleared,
               "two-runs-one-cluster": _two_runs_one_cluster,
               "link-transfer": _link_transfers,
               "rendezvous-sizes": _rendezvous_one_route,
               "fault-plan": _fault_plan}

#: the digests of each case, captured before span ids were memoized
_CACHE_PINS = {
    "clear-mid-run": ["3989ea8772a277a8"],
    "route-cache-cleared": ["5cfbe47177d8798b"],
    "two-runs-one-cluster": ["5cfbe47177d8798b", "5cfbe47177d8798b"],
    # driven through Topology.transfer over two one-link routes since
    # Link.transfer went; the digest is the one the driver before it
    # (Transfer.run) produced for the same case
    "link-transfer": ["d8643cde5041a237"],
    "rendezvous-sizes": ["cd27e51f409b2db5"],
    "fault-plan": ["21902eb1b462d262"],
}


def _table_digest(tracer, elapsed, tmp: Path) -> str:
    """Columns, string table, metas (with their value types), metrics
    and ``.rprt`` bytes of one tracer (writing the file stamps the
    ``telemetry.*`` metrics, so they are read first)."""
    h = hashlib.sha256()
    cols = tracer.columns
    for name in SPAN_COLUMNS:
        h.update(getattr(cols, name).tobytes())
    h.update(repr(cols.strings).encode())
    h.update(repr([[(k, type(v).__name__, repr(v)) for k, v in m.items()]
                   for m in cols.metas]).encode())
    h.update(json.dumps(tracer.metrics.as_dict(), sort_keys=True).encode())
    write_trace_rprt(tracer, tmp / "t.rprt", elapsed=elapsed)
    h.update((tmp / "t.rprt").read_bytes())
    return h.hexdigest()[:16]


def cache_case_digests(name: str, tmp: Path) -> list:
    saved = topology_mod._CACHE_MAX
    try:
        return [_table_digest(tracer, elapsed, tmp)
                for tracer, elapsed in CACHE_CASES[name]()]
    finally:
        topology_mod._CACHE_MAX = saved


def _append_uncached(self, key, fields, t_start, t_end, span_id, parent_id):
    """``SpanColumns.append_keyed`` that never hits: every row is a
    first sight."""
    category, label, meta, rank, track = fields(key)
    self.append(t_start, t_end, category, label, meta, rank, track, span_id,
                parent_id)


@pytest.mark.parametrize("name", sorted(CACHE_CASES))
def test_cached_span_ids_never_outlive_their_table(name, tmp_path,
                                                   monkeypatch):
    cached = cache_case_digests(name, tmp_path)
    monkeypatch.setattr(trace_mod.SpanColumns, "append_keyed",
                        _append_uncached)
    assert cached == cache_case_digests(name, tmp_path)
    assert cached == _CACHE_PINS[name]


def test_a_cleared_tracer_starts_an_empty_memo():
    tracer = _clear_mid_run()[0][0]
    assert tracer.columns._row_ids  # the run after the clear filled it
    tracer.clear()
    assert tracer.columns._row_ids == {}


def test_routes_rebuilt_by_a_cache_clear_share_their_memo_rows(
        tmp_path, monkeypatch):
    """A route rebuilt after a wholesale clear of the route cache keys
    its rows by value, as the one it replaces did: capped to 3, the
    34-rank allgather ends with the uncapped run's memo (34 entries,
    not one per rebuilt route object) and the same columns, string
    table, metas and ``.rprt`` bytes."""
    def run():
        res = Cluster(*_FAT_TREE).run(_small_allgather, config=_DISABLED)
        return res.tracer, res.elapsed

    uncapped, elapsed = run()
    monkeypatch.setattr(topology_mod, "_CACHE_MAX", 3)
    capped, capped_elapsed = run()
    assert len(capped.columns._row_ids) == len(uncapped.columns._row_ids) == 34
    assert (_table_digest(capped, capped_elapsed, tmp_path)
            == _table_digest(uncapped, elapsed, tmp_path))


# -- a repeat network span resolves nothing ----------------------------------

def test_network_spans_resolve_ids_once_per_key(monkeypatch):
    """Over a traced 16-rank allgather, the meta keys computed and the
    string ids looked up for ``network`` rows are bounded by the
    distinct (route, label, size) keys — one meta key and three string
    lookups each — not by the messages."""
    counts = {"meta_key": 0, "strings": 0}
    network = []  # is the row being appended a network span?

    real_append = trace_mod.SpanColumns.append

    def append(self, t_start, t_end, category, *rest):
        network.append(category == "network")
        try:
            real_append(self, t_start, t_end, category, *rest)
        finally:
            network.pop()

    real_meta_key = trace_mod._meta_key

    def meta_key(meta):
        counts["meta_key"] += bool(network and network[-1])
        return real_meta_key(meta)

    def lookup(self, value):
        counts["strings"] += bool(network and network[-1])
        return dict.__getitem__(self, value)

    monkeypatch.setattr(trace_mod.SpanColumns, "append", append)
    monkeypatch.setattr(trace_mod, "_meta_key", meta_key)
    monkeypatch.setattr(trace_mod._Interned, "__getitem__", lookup)
    res = Cluster("fat-tree", 4, 4).run(_small_allgather, config=_DISABLED)
    wire = [r for r in res.tracer.records if r.category == "network"]
    keys = {(r.track, r.label, r.meta["nbytes"]) for r in wire}
    assert len(wire) == 16 * 15 > 2 * len(keys)
    assert 0 < counts["meta_key"] <= len(keys)
    assert 0 < counts["strings"] <= 3 * len(keys)


# -- the metric write path ---------------------------------------------------

def _reference_histogram(values) -> dict:
    """The histogram fold as first written: ``min``/``max`` builtins and
    the clamped bucket formula."""
    h = HistogramStat()
    count, total, lo, hi, buckets = 0, 0.0, float("inf"), float("-inf"), {}
    for v in values:
        count += 1
        total += v
        lo = min(lo, v)
        hi = max(hi, v)
        bucket = max(0, (int(max(v, 1)) - 1).bit_length())
        buckets[bucket] = buckets.get(bucket, 0) + 1
    h.count, h.total, h.min, h.max, h.buckets = count, total, lo, hi, buckets
    return h.as_dict()


_OBSERVED = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 0.25, 0.999, 1, 1.0, 1.5, 2, 3, 2**40,
                     2**70 + 1, 10**25, -1, -2.5]),
    st.integers(min_value=-10**6, max_value=10**25),
    st.floats(min_value=-1e12, max_value=1e300, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_OBSERVED, max_size=30))
def test_histogram_matches_the_builtin_fold(values):
    registry = MetricsRegistry()
    key = MetricsRegistry.key("matching.posted_depth", rank=3)
    for v in values:
        registry.observe(key, v)
    got = registry.histogram("matching.posted_depth", rank=3).as_dict()
    # repr: == would not tell -0.0 from 0.0, nor 1 from 1.0
    assert repr(got) == repr(_reference_histogram(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["name", "key", "direct"]),
                          st.one_of(st.integers(0, 10**6),
                                    st.floats(0.0, 1e-3))), max_size=40))
def test_counter_writes_by_name_key_and_direct_add_agree(updates):
    """``inc`` by name, ``inc`` by key and the hot path's direct add to
    ``_counters`` on one series are one fold."""
    mixed, by_name = MetricsRegistry(), MetricsRegistry()
    key = MetricsRegistry.key("wire.busy_seconds", link="node0-up")
    for how, value in updates:
        by_name.inc("wire.busy_seconds", value, link="node0-up")
        if how == "name":
            mixed.inc("wire.busy_seconds", value, link="node0-up")
        elif how == "key":
            mixed.inc(key, value)
        else:
            mixed._counters[key] = mixed._counters.get(key, 0) + value
    assert repr(mixed.as_dict()) == repr(by_name.as_dict())


# -- the columnar profile equals the record profile --------------------------

def _record_profile(path) -> CommProfile:
    """The profile of a trace file folded record by record: its
    records, its ``otherData`` metrics, its elapsed time or else its
    last span end.  (A live tracer's profile differs from its file's in
    the last bits: the export rounds times to the microsecond.)"""
    records = list(iter_trace_records(path))
    other = read_otherdata(path)
    elapsed = float(other.get("elapsed_seconds") or 0.0) or max(
        (r.t_end for r in records if r.t_end > 0), default=0.0)
    tracer = SimpleNamespace(records=records, metrics=SimpleNamespace(
        as_dict=lambda: other.get("metrics", {})))
    return CommProfile.from_tracer(tracer, elapsed)


def _assert_same_profile(path) -> dict:
    """The columnar fold of ``path`` equals the record fold, float for
    float (``repr``: ``==`` would not tell -0.0 from 0.0), and in the
    order of first appearance that ``report()`` and ``busiest_link``
    break ties by."""
    got, want = CommProfile.from_trace_file(path), _record_profile(path)
    assert repr(got.as_dict()) == repr(want.as_dict()), path
    assert got.report() == want.report(), path
    for table in ("category_time", "links", "size_histogram",
                  "rank_pipeline_time"):
        assert list(getattr(got, table)) == list(getattr(want, table)), path
    return got.as_dict()


def _odd_wire_spans():
    """Wire spans of every shape ``from_records`` tells apart."""
    tr = Tracer()
    tr.span(0.0, 1.0, "network", "a", track="link:a", nbytes=10)
    tr.span(1.0, 3.0, "network", "b", track="main", links=("p", "q"),
            nbytes=5.0)
    tr.span(2.0, 2.5, "x", "c", rank=1, track="gpu", links=(), link="L")
    tr.span(2.0, 2.25, "x", "by-label", rank=1, links=[])
    tr.span(3.0, 3.5, "x", "other-label", rank=1, links=[])
    tr.span(3.0, 4.0, "network", "d", track="link:p+p", links=("p", "p"))
    tr.span(0.5, 0.75, "pipeline", "pipeline", rank=2, seq=1)
    tr.span(0.5, 0.625, "pipeline", "rts", seq=1)
    tr.span(0.75, 1.0, "pipeline", "rts", rank=0, seq=1)
    tr.span(4.0, 4.0, "network", "", track="link:a", nbytes=0)
    # one link, two kinds of row interleaved, and sums that depend on
    # their order: (0.1 + 0.1) + 100 != (0.1 + 100) + 0.1 once read back
    for t0, dur, label in ((0.0, 0.1, "x"), (1.1, 0.1, "y"), (2.2, 100.0, "x")):
        tr.span(t0, t0 + dur, "network", label, track="link:r", nbytes=1)
    return tr, None


def _cluster_trace(shape, fn, config=_DISABLED, faults=None):
    def make():
        res = Cluster(*shape).run(fn, config=config, faults=faults)
        return res.tracer, res.elapsed
    return make


_PROFILE_TRACES = {
    "empty": lambda: (Tracer(), 0.0),
    "odd-wire-spans": _odd_wire_spans,
    "fat-tree-multi-link": _cluster_trace(_FAT_TREE, _small_allgather),
    # 68 x 67 eager messages: more spans than one group holds
    "two-groups": _cluster_trace(("longhorn", 17, 4), _small_allgather),
    "chaos-faults-track": _cluster_trace(
        ("longhorn", 2, 1), pins.pt2pt, MPC,
        FaultPlan(seed=12, drop_rate=0.2, corrupt_rate=0.2)),
}


@pytest.mark.parametrize("name", sorted(_PROFILE_TRACES))
def test_columnar_profile_equals_the_record_profile(name, tmp_path):
    tracer, elapsed = _PROFILE_TRACES[name]()
    write_chrome_trace(tracer, tmp_path / "t.json", elapsed=elapsed)
    write_trace_rprt(tracer, tmp_path / "t.rprt", elapsed=elapsed)
    write_trace_rprt(tracer, tmp_path / "b7.rprt", elapsed=elapsed,
                     spans_per_block=7)
    if name == "chaos-faults-track":
        assert any(r.track == "faults" for r in tracer.records)
    for path in ("t.json", "t.rprt", "b7.rprt"):
        _assert_same_profile(tmp_path / path)


@pytest.mark.parametrize("path", ["golden_trace_mpc.json",
                                  "golden_trace_mpc.rprt"])
def test_columnar_profile_of_the_golden_trace(path):
    got = _assert_same_profile(Path(__file__).parent / "data" / path)
    assert got["n_messages"] > 0
