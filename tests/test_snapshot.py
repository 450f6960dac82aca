"""The snapshot lifecycle, once for both kinds: serialise, load (schema
and kind checked), compare under a per-metric gate policy, report.

``bench`` and ``hostperf`` own only their matrices and a policy; every
rule pinned here (missing entries, ``--advisory``, zero checked) holds
for both because there is one implementation of it.
"""

import copy
import json
import re

import pytest

from repro.analysis import bench, hostperf, snapshot
from repro.analysis.snapshot import EXACT, RATIO, TIMING, Gate


def _main(argv):
    from repro.__main__ import main

    return main(argv)


def _doc(kind, **metrics):
    """A one-entry snapshot of ``kind`` holding ``metrics``."""
    group = {"bench": "scenarios", "hostperf": "benchmarks"}[kind]
    metrics = metrics or {"bench": {"latency_us": 12.5},
                          "hostperf": {"run_s": 0.5}}[kind]
    return {"schema_version": snapshot.SCHEMA_VERSION, "label": "t",
            "mode": "quick",
            group: {"e": {"kind": "x", "params": {}, "metrics": metrics}}}


POLICY = {"bench": bench.policy, "hostperf": hostperf.policy}
OTHER = {"bench": "hostperf", "hostperf": "bench"}
KINDS = sorted(POLICY)


# -- serialise / load ---------------------------------------------------------

@pytest.mark.parametrize("ext", ["json"])
@pytest.mark.parametrize("kind", KINDS)
def test_round_trip(tmp_path, kind, ext):
    doc = _doc(kind)
    path = tmp_path / f"S.{ext}"
    snapshot.write(doc, path)
    assert snapshot.load(path, kind) == doc
    assert snapshot.kind_of(doc) == kind
    assert list(snapshot.entries(doc)) == ["e"]
    # canonical: sorted, newline-terminated, stable
    assert path.read_text() == snapshot.dumps(doc)
    assert snapshot.dumps(json.loads(path.read_text())) == path.read_text()


@pytest.mark.parametrize("kind", KINDS)
def test_load_rejects_wrong_schema(tmp_path, kind):
    path = tmp_path / "old.json"
    snapshot.write(dict(_doc(kind), schema_version=99), path)
    with pytest.raises(ValueError, match="schema_version 99"):
        snapshot.load(path, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_load_rejects_the_other_kind(tmp_path, kind):
    path = tmp_path / "S.json"
    snapshot.write(_doc(OTHER[kind]), path)
    with pytest.raises(ValueError,
                       match=f"a {OTHER[kind]} snapshot, expected {kind}"):
        snapshot.load(path, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_load_rejects_a_document_that_is_no_snapshot(tmp_path, kind):
    path = tmp_path / "x.json"
    for text in ('{"schema_version": 1}', "[1, 2]",
                 '{"scenarios": {}, "benchmarks": {}}'):
        path.write_text(text)
        with pytest.raises(ValueError, match="not a snapshot"):
            snapshot.load(path, kind)


@pytest.mark.parametrize("content", [b'{"schema_version": 1, "scen',
                                     b"\xff\xfe snapshot"],
                         ids=["truncated", "not-utf8"])
def test_load_names_a_file_it_cannot_decode(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for kind in KINDS:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            snapshot.load(path, kind)


def test_compare_refuses_mixed_kinds():
    with pytest.raises(ValueError, match="cannot compare a hostperf"):
        snapshot.compare(_doc("hostperf"), _doc("bench"), bench.policy)


# -- the three gate kinds -----------------------------------------------------

#: (gate, baseline, current, advisory run?, expected verdict)
GATE_CASES = [
    # exact, no direction (every bench number): any movement gates
    (Gate(EXACT), 10.0, 10.0, False, None),
    (Gate(EXACT), 10.0, 10.000001, False, "DRIFT"),
    (Gate(EXACT), 10.0, 9.0, False, "DRIFT"),
    (Gate(EXACT), 10.0, 9.0, True, "DRIFT"),
    (Gate(EXACT), 0.0, 1.0, False, "DRIFT"),
    # exact count with a direction (hostperf *_per_message)
    (Gate(EXACT, +1), 5.0, 5.000001, True, "DRIFT"),
    (Gate(EXACT, +1), 5.0, 4.0, False, "improvement"),
    # ratio: threshold, machine-independent, --advisory does not soften
    (Gate(RATIO, +1), 8.0, 10.0, False, None),
    (Gate(RATIO, +1), 8.0, 12.0, False, "DRIFT"),
    (Gate(RATIO, +1), 8.0, 12.0, True, "DRIFT"),
    (Gate(RATIO, +1), 8.0, 4.0, True, "improvement"),
    # timing: threshold, direction from the gate, softened by --advisory
    (Gate(TIMING, +1), 1.0, 1.29, False, None),
    (Gate(TIMING, +1), 1.0, 2.0, False, "DRIFT"),
    (Gate(TIMING, +1), 1.0, 2.0, True, "advisory"),
    (Gate(TIMING, +1), 1.0, 0.5, False, "improvement"),
    (Gate(TIMING, -1), 100.0, 50.0, False, "DRIFT"),
    (Gate(TIMING, -1), 100.0, 50.0, True, "advisory"),
    (Gate(TIMING, -1), 100.0, 200.0, False, "improvement"),
    # soft timing (bench's wall clock): reported, never gating
    (Gate(TIMING, +1, soft=True), 1.0, 10.0, False, "advisory"),
    (Gate(TIMING, +1, soft=True), 1.0, 0.1, False, "improvement"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gate,base,cur,advisory,expected", GATE_CASES)
def test_gate_kinds(kind, gate, base, cur, advisory, expected):
    cmp = snapshot.compare(_doc(kind, m=cur), _doc(kind, m=base),
                           lambda entry, section, metric: gate,
                           advisory=advisory)
    assert cmp.checked == 1
    assert [d.verdict for d in cmp.drifts] == ([expected] if expected else [])
    assert cmp.ok == (expected != "DRIFT")
    assert len(cmp.gating) == (expected == "DRIFT")
    if expected:
        assert f"[{expected}] e: metrics.m {base!r} -> {cur!r}" in cmp.report()


@pytest.mark.parametrize("section,metric,gate", [
    ("metrics", "latency_us[1024]", Gate(EXACT)),
    ("metrics", "compression_ratio", Gate(EXACT)),   # not a hostperf suffix rule
    ("attribution", "communication", Gate(EXACT)),
    ("counters", "mpi.sends", Gate(EXACT)),
    ("wall", "seconds", Gate(TIMING, +1, soft=True)),
    ("histograms", "compress.kernel_us", None),
    ("params", "nbytes", None),
])
def test_bench_policy(section, metric, gate):
    assert bench.policy("pt2pt/x", section, metric) == gate


@pytest.mark.parametrize("section,metric,gate", [
    ("metrics", "events_per_message", Gate(EXACT, +1)),
    ("metrics", "trace_cost_ratio", Gate(RATIO, +1)),
    ("metrics", "encode_mb_per_s", Gate(TIMING, -1)),  # also ends in "_s"
    ("metrics", "run_s", Gate(TIMING, +1)),
    ("metrics", "peak_heap_bytes", Gate(TIMING, +1)),
    ("metrics", "ratio", None),        # a codec's compression ratio
    ("metrics", "n_events", None),
    ("params", "nbytes", None),
])
def test_hostperf_policy(section, metric, gate):
    assert hostperf.policy("b", section, metric) == gate


# -- one rule for missing entries, one for zero checked -----------------------

@pytest.mark.parametrize("kind", KINDS)
def test_missing_entries(kind):
    one, two = _doc(kind), _doc(kind)
    snapshot.entries(two)["f"] = copy.deepcopy(snapshot.entries(two)["e"])
    # unfiltered run: every baseline entry gates
    vanished = snapshot.compare(one, two, POLICY[kind])
    assert not vanished.ok
    assert "[DRIFT] f: <entry> missing from current" in vanished.report()
    # ... under --advisory too: a dropped entry is not a timing
    assert not snapshot.compare(one, two, POLICY[kind], advisory=True).ok
    # a run collected under a name filter is compared on what it collected
    partial = snapshot.compare(one, two, POLICY[kind], partial=True)
    assert partial.ok and partial.checked == 1 and not partial.drifts
    # entries only in current are new coverage
    grown = snapshot.compare(two, one, POLICY[kind])
    assert grown.ok
    assert grown.report().splitlines()[1:] == [
        "  [advisory] f: <entry> missing from baseline"]


@pytest.mark.parametrize("kind", KINDS)
def test_missing_and_new_metrics(kind):
    extra = {"bench": "extra_us", "hostperf": "extra_s"}[kind]
    base = _doc(kind)
    more = _doc(kind)
    snapshot.entries(more)["e"]["metrics"][extra] = 1.0
    lost = snapshot.compare(base, more, POLICY[kind])
    assert not lost.ok and lost.checked == 2
    assert f"metrics.{extra} missing from current" in lost.report()
    gained = snapshot.compare(more, base, POLICY[kind])
    assert gained.ok and gained.checked == 1
    assert f"[advisory] e: metrics.{extra} missing from baseline" \
        in gained.report()


@pytest.mark.parametrize("kind", KINDS)
def test_zero_checked_is_not_ok(kind):
    doc = _doc(kind)
    empty = copy.deepcopy(doc)
    snapshot.entries(empty).clear()
    for cur, base, partial in ((doc, empty, False),    # wrong/empty baseline
                               (empty, doc, True)):    # filter matched nothing
        cmp = snapshot.compare(cur, base, POLICY[kind], partial=partial)
        assert cmp.checked == 0 and not cmp.ok
        assert "nothing to gate" in cmp.report()
    # a policy that compares nothing is no pass either
    assert not snapshot.compare(doc, doc, lambda *a: None).ok


@pytest.mark.parametrize("kind", KINDS)
def test_mode_mismatch_gates_and_label_does_not(kind):
    doc = _doc(kind)
    assert snapshot.compare(dict(doc, label="other"), doc, POLICY[kind]).ok
    cmp = snapshot.compare(dict(doc, mode="full"), doc, POLICY[kind])
    assert not cmp.ok
    assert "[DRIFT] <header>: mode 'quick' -> 'full'" in cmp.report()


# -- selftest and the committed baselines -------------------------------------

def test_selftest_is_a_table_over_the_shared_comparator(monkeypatch):
    assert hostperf.selftest() == []
    rows = hostperf._SELFTEST
    advisory = {(metric, verdict) for metric, _, _, adv, verdict in rows if adv}
    # the exact and the ratio kind are proved to gate under --advisory
    assert ("events_per_message", "DRIFT") in advisory
    assert ("trace_cost_ratio", "DRIFT") in advisory
    assert ("encode_s", "advisory") in advisory
    # ... and a comparator that lost a rule is caught, row by row
    monkeypatch.setattr(hostperf, "policy", lambda *a: Gate(TIMING, +1))
    failed = hostperf.selftest()
    assert any("events_per_message" in f for f in failed)
    assert any("trace_cost_ratio" in f for f in failed)


@pytest.mark.parametrize("name,kind", [
    ("BENCH_baseline.json", "bench"),
    ("BENCH_scale_baseline.json", "bench"),
    ("HOSTPERF_baseline.json", "hostperf"),
])
def test_committed_baselines_load_and_self_compare_clean(name, kind):
    path = f"tests/data/{name}"
    doc = snapshot.load(path, kind)
    cmp = snapshot.compare(doc, doc, POLICY[kind])
    assert cmp.ok and cmp.checked > 0 and not cmp.drifts
    assert snapshot.dumps(doc) == open(path).read()  # canonical on disk
    with pytest.raises(ValueError, match="expected"):
        snapshot.load(path, OTHER[kind])


# -- the CLI flow both commands share -----------------------------------------

HOSTPERF_BASELINE = "tests/data/HOSTPERF_baseline.json"
BENCH_BASELINE = "tests/data/BENCH_baseline.json"


@pytest.mark.parametrize("cmd,wrong", [("bench", HOSTPERF_BASELINE),
                                       ("perf", BENCH_BASELINE)])
def test_cli_wrong_kind_is_a_one_line_exit(cmd, wrong):
    right = BENCH_BASELINE if cmd == "bench" else HOSTPERF_BASELINE
    for argv in (["--against", wrong, "--compare", wrong],
                 ["--against", right, "--compare", wrong],
                 ["--against", right, "--compare", "no/such/file.json"]):
        with pytest.raises(SystemExit) as exc:
            _main([cmd] + argv)
        assert str(exc.value.code).startswith("cannot load snapshot: ")
        assert "\n" not in str(exc.value.code)


def test_cli_bench_filtered_run_compares_on_what_it_collected(tmp_path, capsys):
    out = tmp_path / "B.json"
    assert _main(["bench", "--quick", "--scenario", "bcast/mpc-opt",
                  "--out", str(out), "--compare", BENCH_BASELINE]) == 0
    assert "compared 1 metrics: OK" in capsys.readouterr().out
    # the same snapshot compared as an unfiltered run: 19 scenarios vanished
    with pytest.raises(SystemExit) as exc:
        _main(["bench", "--against", str(out), "--compare", BENCH_BASELINE])
    assert exc.value.code == 1
    # a filter that matched nothing is not a pass: nothing runs
    with pytest.raises(SystemExit) as exc:
        _main(["bench", "--quick", "--scenario", "no-such-scenario",
               "--out", str(out), "--compare", BENCH_BASELINE])
    assert "'no-such-scenario'" in str(exc.value.code)


def test_cli_perf_advisory_softens_timings_only(tmp_path, capsys):
    base = snapshot.load(HOSTPERF_BASELINE, "hostperf")

    def against(mutate):
        doc = copy.deepcopy(base)
        mutate(doc["benchmarks"])
        snapshot.write(doc, tmp_path / "H.json")
        return ["perf", "--against", str(tmp_path / "H.json"),
                "--compare", HOSTPERF_BASELINE, "--advisory"]

    def slower(b):
        b["engine/events"]["metrics"]["run_s"] *= 3

    def one_more_event(b):
        m = b["msg/events_per_message"]["metrics"]
        m["n_events"] += 1
        m["events_per_message"] = round(m["n_events"] / m["n_messages"], 6)

    def costlier_tracing(b):
        b["engine/spans"]["metrics"]["trace_cost_ratio"] *= 1.5

    def dropped(b):
        del b["e2e/codec-stream"]

    assert _main(against(slower)) == 0
    assert "[advisory] engine/events: metrics.run_s" in capsys.readouterr().out
    for mutate, line in (
            (one_more_event, "[DRIFT] msg/events_per_message: "
                             "metrics.events_per_message"),
            (costlier_tracing, "[DRIFT] engine/spans: metrics.trace_cost_ratio"),
            (dropped, "[DRIFT] e2e/codec-stream: <entry> missing")):
        with pytest.raises(SystemExit) as exc:
            _main(against(mutate))
        assert exc.value.code == 1
        assert line in capsys.readouterr().out


@pytest.mark.parametrize("module", [bench, hostperf], ids=KINDS)
def test_collect_refuses_a_filter_that_matches_nothing(module):
    with pytest.raises(ValueError, match="'nomatch'"):
        module.collect(quick=True, only="nomatch")


@pytest.mark.parametrize("cmd,flag", [("bench", "--scenario"),
                                      ("perf", "--only")])
def test_cli_filter_that_matches_nothing_exits_naming_it(tmp_path, cmd, flag):
    out = tmp_path / "S.json"
    with pytest.raises(SystemExit) as exc:
        _main([cmd, "--quick", flag, "nomatch", "--out", str(out)])
    assert "'nomatch'" in str(exc.value.code)
    assert not out.exists()


def test_cli_perf_only_is_a_partial_run(tmp_path, capsys):
    # what CI's scale-smoke job does, on a benchmark cheap enough for here
    assert _main(["perf", "--quick", "--reps", "1",
                  "--only", "coll/codec_decodes_per_message",
                  "--out", str(tmp_path / "H.json"),
                  "--compare", HOSTPERF_BASELINE]) == 0
    assert "compared 1 metrics: OK" in capsys.readouterr().out


def test_perf_has_no_threshold_option():
    with pytest.raises(SystemExit):
        _main(["perf", "--selftest", "--threshold", "0.5"])
