"""Benchmark trajectory: deterministic snapshots, the CLI round trip,
and zero-tolerance regression gating (ISSUE 3 acceptance criteria).
"""

import json
import os

import pytest

from repro.analysis import bench, snapshot
from repro.analysis.metrics import HistogramStat
from repro.gpu.spec import DeviceSpec


# -- histogram percentiles (satellite: p50/p95/p99) -------------------------

def test_histogram_percentiles_deterministic():
    def build():
        h = HistogramStat()
        for v in [1, 2, 3, 100, 200, 300, 5000]:
            h.observe(v)
        return h

    a, b = build(), build()
    assert (a.p50, a.p95, a.p99) == (b.p50, b.p95, b.p99)
    assert a.as_dict() == b.as_dict()
    for key in ("p50", "p95", "p99"):
        assert key in a.as_dict()
    assert a.min <= a.p50 <= a.p95 <= a.p99 <= a.max


def test_histogram_percentile_edges():
    h = HistogramStat()
    assert h.p50 == 0.0  # empty histogram
    h.observe(42.0)
    assert h.p50 == 42.0 == h.p99  # single value: clamped to [min, max]
    with pytest.raises(ValueError):
        h.percentile(0.0)
    with pytest.raises(ValueError):
        h.percentile(1.5)


# -- snapshot collection ----------------------------------------------------

def test_scenario_matrix_shape():
    names = [s.name for s in bench.scenario_matrix(quick=True)]
    assert len(names) == len(set(names))
    kinds = {s.kind for s in bench.scenario_matrix(quick=True)}
    assert kinds == {"pt2pt", "collective", "awp", "chaos"}
    for cfg in bench.PT2PT_CONFIGS:
        assert f"pt2pt/{cfg}" in names


def test_sweep_sizes_shared_with_benchmarks():
    # benchmarks/_common.py must read its sweep from here (one source
    # of truth); sanity-check the canonical values
    assert bench.sweep_sizes(full=False)[0] == 256 * 1024
    assert bench.sweep_sizes(full=True)[-1] == 32 * 1024 * 1024
    assert set(bench.QUICK_SIZES) <= set(bench.sweep_sizes(full=False))


def test_named_config_vocabulary():
    for name in bench.CONFIG_NAMES:
        cfg = bench.named_config(name)
        assert cfg is not None
    with pytest.raises(KeyError):
        bench.named_config("nope")


@pytest.fixture(scope="module")
def quick_doc():
    return bench.collect(quick=True, label="test",
                         only="pt2pt/naive-mpc")


def test_collect_byte_identical(quick_doc):
    again = bench.collect(quick=True, label="test",
                          only="pt2pt/naive-mpc")
    assert snapshot.dumps(quick_doc) == snapshot.dumps(again)


def test_snapshot_schema(quick_doc):
    assert quick_doc["schema_version"] == snapshot.SCHEMA_VERSION
    sc = quick_doc["scenarios"]["pt2pt/naive-mpc"]
    assert sc["kind"] == "pt2pt"
    assert all(k.startswith("latency_us[") for k in sc["metrics"])
    assert sc["attribution"].keys() == {
        "compression", "communication", "decompression", "other"}
    assert sc["counters"]["mpi.sends"] > 0
    assert sc["counters"]["compression_ratio"] > 1
    assert "compress.kernel_us.p50" in sc["counters"]
    # no wall-clock section unless explicitly requested
    assert "wall" not in sc


def test_self_compare_ok(quick_doc):
    cmp = snapshot.compare(quick_doc, quick_doc, bench.policy)
    assert cmp.ok and cmp.checked > 0
    assert "OK" in cmp.report()


def test_synthetic_slowdown_detected(quick_doc, monkeypatch):
    """Doubling the cudaMemcpy cost must trip the gate: naive-mpc uses
    memcpy_d2h for the compressed-size retrieval, so its simulated
    latency moves, and zero tolerance flags it."""
    orig = DeviceSpec.memcpy_time
    monkeypatch.setattr(DeviceSpec, "memcpy_time",
                        lambda self, nbytes: 2.0 * orig(self, nbytes))
    slowed = bench.collect(quick=True, label="test",
                           only="pt2pt/naive-mpc")
    cmp = snapshot.compare(slowed, quick_doc, bench.policy)
    assert not cmp.ok
    assert any("latency_us" in d.metric and d.gating for d in cmp.drifts)
    assert "DRIFT" in cmp.report()


def test_compare_missing_scenario_gates(quick_doc):
    more = json.loads(snapshot.dumps(quick_doc))
    more["scenarios"]["pt2pt/new"] = more["scenarios"]["pt2pt/naive-mpc"]
    vanished = snapshot.compare(quick_doc, more, bench.policy)
    assert not vanished.ok and "<entry> missing from current" in vanished.report()
    # a run collected under --scenario is compared on what it collected
    assert snapshot.compare(quick_doc, more, bench.policy, partial=True).ok
    grown = snapshot.compare(more, quick_doc, bench.policy)
    assert grown.ok  # new coverage is reported, never gating
    assert [d.verdict for d in grown.drifts] == ["advisory"]


def test_compare_wall_is_advisory(quick_doc):
    base = json.loads(snapshot.dumps(quick_doc))
    cur = json.loads(snapshot.dumps(quick_doc))
    base["scenarios"]["pt2pt/naive-mpc"]["wall"] = {"seconds": 1.0}
    cur["scenarios"]["pt2pt/naive-mpc"]["wall"] = {"seconds": 10.0}
    cmp = snapshot.compare(cur, base, bench.policy)
    assert cmp.ok  # wall drift never gates
    assert [(d.section, d.metric, d.verdict) for d in cmp.drifts] == [
        ("wall", "seconds", "advisory")]


def test_label_excluded_from_comparison(quick_doc):
    relabeled = json.loads(snapshot.dumps(quick_doc))
    relabeled["label"] = "other"
    assert snapshot.compare(relabeled, quick_doc, bench.policy).ok


# -- CLI round trip ---------------------------------------------------------

def _main(argv):
    from repro.__main__ import main

    return main(argv)


def test_cli_bench_out_and_self_compare(tmp_path, capsys):
    out = tmp_path / "BENCH_pr3.json"
    rc = _main(["bench", "--quick", "--label", "pr3",
                "--scenario", "pt2pt/naive-mpc", "--out", str(out)])
    assert rc == 0 and out.exists()
    doc = snapshot.load(out, "bench")
    assert doc["scenarios"]
    # --against + --compare on its own output: exit 0, no re-run
    rc = _main(["bench", "--against", str(out), "--compare", str(out)])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_cli_bench_compare_fails_on_slowdown(tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH_base.json"
    assert _main(["bench", "--quick", "--scenario", "pt2pt/naive-mpc",
                  "--out", str(out)]) == 0
    orig = DeviceSpec.memcpy_time
    monkeypatch.setattr(DeviceSpec, "memcpy_time",
                        lambda self, nbytes: 2.0 * orig(self, nbytes))
    slow = tmp_path / "BENCH_slow.json"
    with pytest.raises(SystemExit) as exc:
        _main(["bench", "--quick", "--scenario", "pt2pt/naive-mpc",
               "--out", str(slow), "--compare", str(out)])
    assert exc.value.code == 1
    assert "DRIFT" in capsys.readouterr().out


def test_mode_mismatch_is_a_drift_line_not_a_traceback(tmp_path, capsys):
    """``bench --compare tests/data/BENCH_baseline.json`` without
    ``--quick`` compares a full-mode run to the quick baseline: the
    header drift is two strings, which ``describe`` used to subtract."""
    quick = tmp_path / "BENCH_quick.json"
    assert _main(["bench", "--quick", "--scenario", "pt2pt/naive-mpc",
                  "--out", str(quick)]) == 0
    doc = snapshot.load(quick, "bench")
    doc["mode"] = "full"  # what a run without --quick records
    full = tmp_path / "BENCH_full.json"
    snapshot.write(doc, full)
    cmp = snapshot.compare(snapshot.load(full, "bench"),
                           snapshot.load(quick, "bench"), bench.policy)
    assert not cmp.ok
    assert "[DRIFT] <header>: mode 'quick' -> 'full'" in cmp.report()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _main(["bench", "--against", str(full), "--compare", str(quick)])
    assert exc.value.code == 1
    assert "[DRIFT] <header>: mode 'quick' -> 'full'" in capsys.readouterr().out


def test_committed_baseline_matches(capsys):
    """The checked-in CI baseline must match a fresh run bit-for-bit —
    regenerate tests/data/BENCH_baseline.json when the performance
    model changes on purpose (python -m repro bench --quick --label
    baseline --out tests/data/BENCH_baseline.json)."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "BENCH_baseline.json")
    baseline = snapshot.load(path, "bench")
    current = bench.collect(quick=True, label="baseline")
    cmp = snapshot.compare(current, baseline, bench.policy)
    assert cmp.ok, cmp.report()
    assert snapshot.dumps(current) == open(path).read()


# -- scale matrix (1k+-rank hierarchical runs) -------------------------------

def test_scale_matrix_shape():
    scs = bench.scale_matrix()
    names = [s.name for s in scs]
    assert names == ["scale/allgather-64/fat-tree",
                     "scale/allgather-1024/fat-tree",
                     "scale/awp-4096/dragonfly"]
    for s in scs:
        # Scale points run untraced; the collectives also skip warm-up.
        assert s.params.get("trace") is False
        if s.kind == "collective":
            assert s.params["warmup"] == 0
    big = scs[1].params
    assert big["nodes"] * big["ppn"] == 1024
    awp = scs[2].params
    assert awp["gpus"] == 4096 and awp["surrogate"] is True


def test_scale_collect_deterministic_and_marked():
    a = bench.collect(scale=True, label="t", only="allgather-64")
    b = bench.collect(scale=True, label="t", only="allgather-64")
    assert a["mode"] == "scale"
    assert list(a["scenarios"]) == ["scale/allgather-64/fat-tree"]
    assert snapshot.dumps(a) == snapshot.dumps(b)


def test_scale_mode_mismatch_gates(tmp_path):
    quick = {"schema_version": snapshot.SCHEMA_VERSION, "label": "x",
             "mode": "quick", "scenarios": {}}
    scale = {"schema_version": snapshot.SCHEMA_VERSION, "label": "x",
             "mode": "scale", "scenarios": {}}
    assert not snapshot.compare(quick, scale, bench.policy).ok


def test_committed_scale_baseline_64_point_matches():
    """The small scale point must match the committed scale baseline
    bit-for-bit (regenerate tests/data/BENCH_scale_baseline.json with
    python -m repro bench --scale --label scale_baseline --out ... when
    the performance model changes on purpose).  The 1024/4096-rank
    points are exercised by CI's scale-smoke job, not here."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "BENCH_scale_baseline.json")
    baseline = snapshot.load(path, "bench")
    assert baseline["mode"] == "scale"
    assert set(baseline["scenarios"]) == {
        "scale/allgather-64/fat-tree", "scale/allgather-1024/fat-tree",
        "scale/awp-4096/dragonfly"}
    current = bench.collect(scale=True, label="scale_baseline",
                            only="allgather-64")
    name = "scale/allgather-64/fat-tree"
    assert current["scenarios"][name] == baseline["scenarios"][name]
