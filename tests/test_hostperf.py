"""Host-performance harness: the microbench matrix, collection, and
the gate policy (which suffix is which gate kind, in which direction).

These tests never assert absolute wall-clock numbers — host speed is
machine-dependent.  The snapshot lifecycle itself (serialise, load,
compare, missing entries, ``--advisory``) is ``tests/test_snapshot.py``.
"""

import json

import pytest

from repro.analysis import hostperf, snapshot


def _tiny_collect(**kw):
    # One codec config at the small size, single rep: fast enough for CI.
    return hostperf.collect(quick=True, reps=1,
                            only="codec/zfp8-f32/smooth/256K", **kw)


def test_collect_produces_schema_valid_snapshot():
    doc = _tiny_collect(label="t")
    assert doc["schema_version"] == snapshot.SCHEMA_VERSION
    assert doc["label"] == "t"
    assert doc["mode"] == "quick"
    assert doc["reps"] == 1
    assert list(doc["benchmarks"]) == ["codec/zfp8-f32/smooth/256K"]
    entry = doc["benchmarks"]["codec/zfp8-f32/smooth/256K"]
    assert entry["kind"] == "codec"
    assert entry["params"]["codec"] == "zfp"
    assert entry["params"]["codec_params"] == {"rate": 8}
    m = entry["metrics"]
    for key in ("encode_s", "decode_s", "encode_mb_per_s",
                "decode_mb_per_s", "ratio"):
        assert m[key] > 0
    # Rates and times must agree: MB/s == nbytes / seconds / 1e6.
    assert m["encode_mb_per_s"] == pytest.approx(
        entry["params"]["nbytes"] / m["encode_s"] / 1e6, rel=0.01)


def test_collect_progress_and_engine_bench():
    seen = []
    doc = hostperf.collect(quick=True, reps=1, only="engine/",
                           progress=seen.append)
    assert "engine/events" in seen and "engine/spans" in seen
    assert any(n.startswith("engine/scale/") for n in seen)
    for name in seen:
        m = doc["benchmarks"][name]["metrics"]
        assert m["run_s"] > 0 and m["events_per_s"] > 0


def test_matrix_covers_every_kind():
    names = [mb.name for mb in hostperf.benchmark_matrix(quick=True)]
    assert "engine/events" in names
    assert "engine/spans" in names
    assert "e2e/bench-quick" in names
    codecs = {n.split("/")[1] for n in names if n.startswith("codec/")}
    assert {"zfp8-f32", "zfp2d8-f32", "mpc-d1-f32", "fpc-f64",
            "gfc-f64", "sz-f32"} <= codecs
    # Full mode adds the 16 MiB size.
    full = [mb.name for mb in hostperf.benchmark_matrix(quick=False)]
    assert any(n.endswith("/16384K") for n in full)
    assert not any(n.endswith("/16384K") for n in names)


def test_write_load_roundtrip(tmp_path):
    doc = _tiny_collect(label="rt")
    path = tmp_path / "HOSTPERF_rt.json"
    snapshot.write(doc, path)
    assert snapshot.load(path, "hostperf") == doc
    # dumps is deterministic and newline-terminated (clean git diffs).
    text = path.read_text()
    assert text == snapshot.dumps(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


# -- comparison direction semantics ------------------------------------------

def _compare(current, baseline, **kw):
    return snapshot.compare(current, baseline, hostperf.policy, **kw)


def _snap(**metrics):
    return {"schema_version": snapshot.SCHEMA_VERSION, "label": "x",
            "mode": "quick", "reps": 1,
            "benchmarks": {"b": {"kind": "codec", "params": {},
                                 "metrics": metrics}}}


def test_compare_time_growth_is_a_regression():
    cmp = _compare(_snap(encode_s=0.02), _snap(encode_s=0.01))
    assert not cmp.ok
    (d,) = cmp.gating
    assert (d.metric, d.baseline, d.current) == ("encode_s", 0.01, 0.02)
    assert "[DRIFT] b: metrics.encode_s 0.01 -> 0.02 (+100%)" in cmp.report()


def test_compare_rate_shrink_is_a_regression():
    # encode_mb_per_s ends in "_s" too — the _per_s rule must win.
    cmp = _compare(_snap(encode_mb_per_s=50.0), _snap(encode_mb_per_s=100.0))
    assert not cmp.ok
    (d,) = cmp.gating
    assert d.metric == "encode_mb_per_s"


def test_compare_improvements_report_but_never_gate():
    cur = _snap(encode_s=0.002, encode_mb_per_s=500.0)
    base = _snap(encode_s=0.010, encode_mb_per_s=100.0)
    cmp = _compare(cur, base)
    assert cmp.ok
    assert len(cmp.drifts) == 2 and not cmp.gating
    assert "improvement" in cmp.report()


def test_compare_within_threshold_is_clean():
    cmp = _compare(_snap(encode_s=0.011), _snap(encode_s=0.010))
    assert cmp.ok and not cmp.drifts and cmp.checked == 1


def test_compare_skips_uncompared_metrics_and_new_benchmarks():
    # "ratio" carries no direction suffix: informational only — and a
    # comparison that checked nothing is not a pass.
    cmp = _compare(_snap(ratio=1.0), _snap(ratio=4.0))
    assert cmp.checked == 0 and not cmp.drifts and not cmp.ok
    assert _compare(_snap(ratio=1.0, encode_s=0.01),
                    _snap(ratio=4.0, encode_s=0.01)).ok
    # The matrix may grow (new coverage is advisory); a benchmark that
    # vanished from an unfiltered run is a drift, as for ``bench``.
    both = _snap(encode_s=0.01)
    both["benchmarks"]["new"] = both["benchmarks"]["b"]
    grown = _compare(both, _snap(encode_s=0.01))
    assert grown.ok and [d.verdict for d in grown.drifts] == ["advisory"]
    assert not _compare(_snap(encode_s=0.01), both).ok
    assert _compare(_snap(encode_s=0.01), both, partial=True).ok


def test_selftest_passes():
    assert hostperf.selftest() == []


def test_committed_baseline_loads_and_self_compares():
    doc = snapshot.load("tests/data/HOSTPERF_baseline.json", "hostperf")
    assert doc["schema_version"] == snapshot.SCHEMA_VERSION
    assert "e2e/bench-quick" in doc["benchmarks"]
    cmp = _compare(doc, doc)
    assert cmp.ok and cmp.checked > 0 and not cmp.drifts


# -- CLI ---------------------------------------------------------------------

def _main(argv):
    from repro.__main__ import main
    return main(argv)


def test_cli_perf_selftest_ok(capsys):
    _main(["perf", "--selftest"])
    assert "selftest OK" in capsys.readouterr().out


def test_cli_perf_compare_gates_on_injected_regression(tmp_path, capsys):
    cur = tmp_path / "cur.json"
    base = tmp_path / "base.json"
    doc = _snap(encode_s=0.010)
    snapshot.write(doc, base)
    slow = _snap(encode_s=0.030)
    snapshot.write(slow, cur)
    with pytest.raises(SystemExit) as exc:
        _main(["perf", "--against", str(cur), "--compare", str(base)])
    assert exc.value.code == 1
    assert "[DRIFT] b: metrics.encode_s" in capsys.readouterr().out
    # --advisory reports a timing drift but exits cleanly.
    _main(["perf", "--against", str(cur), "--compare", str(base),
           "--advisory"])
    assert "[advisory] b: metrics.encode_s" in capsys.readouterr().out
    # No regression -> clean pass.
    _main(["perf", "--against", str(base), "--compare", str(base)])
    assert "OK" in capsys.readouterr().out


# -- engine/scale + memory metrics -------------------------------------------

def test_matrix_includes_scale_points():
    for quick in (True, False):
        names = [mb.name for mb in hostperf.benchmark_matrix(quick=quick)]
        assert "engine/scale/256" in names
        assert "engine/scale/1024" in names


def test_engine_bench_reports_peak_heap():
    doc = hostperf.collect(quick=True, reps=1, only="engine/events")
    m = doc["benchmarks"]["engine/events"]["metrics"]
    assert m["peak_heap_bytes"] > 0


def test_span_bench_reports_the_tracing_cost_ratio():
    doc = hostperf.collect(quick=True, reps=1, only="engine/spans")
    m = doc["benchmarks"]["engine/spans"]["metrics"]
    # the traced loop over the untraced one, timed back to back
    assert m["trace_cost_ratio"] > 1.0
    assert m["peak_heap_bytes"] <= 1_000_000  # spans are columns
    events = hostperf.collect(quick=True, reps=1, only="engine/events")
    assert "trace_cost_ratio" not in \
        events["benchmarks"]["engine/events"]["metrics"]


def test_cost_ratio_gates_as_bigger_is_worse():
    def snap(ratio):
        return {"benchmarks": {"engine/spans": {
            "kind": "engine", "params": {},
            "metrics": {"trace_cost_ratio": ratio}}}}

    worse = _compare(snap(12.0), snap(8.0))
    assert [d.metric for d in worse.gating] == ["trace_cost_ratio"]
    better = _compare(snap(4.0), snap(8.0))
    assert better.ok and better.drifts
    # a codec's compression ``ratio`` stays informational
    assert _compare(
        {"benchmarks": {"c": {"metrics": {"ratio": 1.0}}}},
        {"benchmarks": {"c": {"metrics": {"ratio": 9.0}}}}).checked == 0


def test_scale_bench_collects():
    doc = hostperf.collect(quick=True, reps=1, only="engine/scale/256")
    m = doc["benchmarks"]["engine/scale/256"]["metrics"]
    assert m["events_per_s"] > 0
    assert m["peak_heap_bytes"] > 0
    assert m["n_events"] > 256  # every rank contributes events


def test_compare_heap_growth_is_a_regression():
    cmp = _compare(_snap(peak_heap_bytes=4 << 20),
                           _snap(peak_heap_bytes=1 << 20))
    assert not cmp.ok
    (d,) = cmp.gating
    assert d.metric == "peak_heap_bytes"
    # Shrinking heap is an improvement, never gates.
    cmp = _compare(_snap(peak_heap_bytes=1 << 20),
                           _snap(peak_heap_bytes=4 << 20))
    assert cmp.ok


# -- message-path points --------------------------------------------------------

def test_matrix_includes_message_path_points():
    for quick in (True, False):
        names = [mb.name for mb in hostperf.benchmark_matrix(quick=quick)]
        assert "e2e/scale-allgather-64" in names
        assert "e2e/scale-allgather-256" in names
        assert "msg/events_per_message" in names
        assert "msg/rndv_events_per_message" in names


def test_events_per_message_point_is_exact_and_within_budget():
    a = hostperf.collect(quick=True, reps=1, only="msg/")
    b = hostperf.collect(quick=True, reps=1, only="msg/")
    m = a["benchmarks"]["msg/events_per_message"]["metrics"]
    assert m == b["benchmarks"]["msg/events_per_message"]["metrics"]
    assert m["n_messages"] == 64 * 63
    assert m["events_per_message"] <= 6.5


def test_rndv_events_per_message_point_is_exact_and_pinned():
    """The same ring allgather with 64 KiB blocks: every message takes
    the rendezvous path, and the baseline gates its count exactly."""
    doc = hostperf.collect(quick=True, reps=1, only="msg/rndv")
    m = doc["benchmarks"]["msg/rndv_events_per_message"]["metrics"]
    assert m["n_messages"] == 64 * 63
    base = snapshot.load("tests/data/HOSTPERF_baseline.json", "hostperf")
    assert base["benchmarks"]["msg/rndv_events_per_message"]["metrics"] == m


def test_scale_allgather_point_collects():
    doc = hostperf.collect(quick=True, reps=1, only="e2e/scale-allgather-64")
    assert doc["benchmarks"]["e2e/scale-allgather-64"]["metrics"]["run_s"] > 0
    # the 256-rank point (~2 s) is timed by `repro perf`, not here
    base = snapshot.load("tests/data/HOSTPERF_baseline.json", "hostperf")
    point = [mb for mb in hostperf.benchmark_matrix()
             if mb.name == "e2e/scale-allgather-256"]
    assert [base["benchmarks"][mb.name]["params"] for mb in point] == [
        {"machine": "fat-tree", "nodes": 64, "ppn": 4, "nbytes": 4096}]


def test_compare_gates_exact_counts_at_zero_tolerance():
    base = _snap(events_per_message=5.0)
    assert _compare(_snap(events_per_message=5.0), base).ok
    worse = _compare(_snap(events_per_message=5.01), base)
    assert not worse.ok  # far inside the 30% timing threshold, still gated
    better = _compare(_snap(events_per_message=4.0), base)
    assert better.ok and len(better.drifts) == 1


# -- data-plane points -----------------------------------------------------------

def test_matrix_includes_data_plane_points():
    for quick in (True, False):
        names = [mb.name for mb in hostperf.benchmark_matrix(quick=quick)]
        assert "e2e/coll-relay-16" in names
        assert "e2e/codec-stream" in names
        assert "coll/codec_decodes_per_message" in names


def test_codec_decodes_per_message_point_is_exact_and_on_budget():
    a = hostperf.collect(quick=True, reps=1, only="coll/")
    b = hostperf.collect(quick=True, reps=1, only="coll/")
    m = a["benchmarks"]["coll/codec_decodes_per_message"]["metrics"]
    assert m == b["benchmarks"]["coll/codec_decodes_per_message"]["metrics"]
    # 8-rank ring allreduce: 2 * 8 * 7 messages, and no real decode:
    # every image was encoded by a lossless codec in this process, which
    # recorded its decode (the reduce-scatter's arrivals, the final chunks)
    assert m["n_messages"] == 112
    assert m["n_decodes"] == 0
    # ...and the committed baseline gates exactly that, at zero tolerance
    base = snapshot.load("tests/data/HOSTPERF_baseline.json", "hostperf")
    assert base["benchmarks"]["coll/codec_decodes_per_message"]["metrics"] == m
    worse = {"schema_version": snapshot.SCHEMA_VERSION, "benchmarks": {
        "coll/codec_decodes_per_message": {"metrics": {
            "codec_decodes_per_message": m["codec_decodes_per_message"] + 0.01}}}}
    assert not _compare(worse, base).ok


def test_coll_relay_point_collects():
    doc = hostperf.collect(quick=True, reps=1, only="e2e/coll-relay-16")
    assert doc["benchmarks"]["e2e/coll-relay-16"]["metrics"]["run_s"] > 0


def test_codec_stream_point_collects():
    doc = hostperf.collect(quick=True, reps=1, only="e2e/codec-stream")
    assert doc["benchmarks"]["e2e/codec-stream"]["metrics"]["run_s"] > 0
    base = snapshot.load("tests/data/HOSTPERF_baseline.json", "hostperf")
    assert "e2e/codec-stream" in base["benchmarks"]
