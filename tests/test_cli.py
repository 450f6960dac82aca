"""CLI entry-point tests."""

from pathlib import Path

import pytest

from repro.__main__ import main


def test_machines(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "longhorn" in out and "IB-EDR" in out


def test_codecs(capsys):
    assert main(["codecs"]) == 0
    out = capsys.readouterr().out
    assert "Proposed MPC-OPT" in out


def test_latency(capsys):
    assert main(["latency", "--sizes", "256K", "--config", "mpc-opt"]) == 0
    assert "osu_latency" in capsys.readouterr().out


def test_latency_intra(capsys):
    assert main(["latency", "--sizes", "256K", "--intra"]) == 0


def test_bcast(capsys):
    assert main(["bcast", "--nodes", "2", "--ppn", "1", "--size", "256K",
                 "--dataset", "msg_sp", "--config", "baseline"]) == 0
    assert "bcast msg_sp" in capsys.readouterr().out


def test_awp(capsys):
    assert main(["awp", "--gpus", "4", "--ppn", "2", "--steps", "2",
                 "--config", "baseline"]) == 0
    assert "GFLOP/s" in capsys.readouterr().out


def test_dask(capsys):
    assert main(["dask", "--workers", "2", "--dims", "512", "--chunk", "128"]) == 0
    assert "aggregate" in capsys.readouterr().out


def test_table3(capsys):
    assert main(["table3", "--scale", "0.01"]) == 0
    assert "msg_sppm" in capsys.readouterr().out


def test_unknown_config():
    with pytest.raises(SystemExit):
        main(["latency", "--config", "zstd"])


def test_profile(capsys):
    assert main(["profile", "--nodes", "2", "--ppn", "1", "--size", "512K"]) == 0
    out = capsys.readouterr().out
    assert "link activity" in out and "time by category" in out


def test_profile_json_out(tmp_path, capsys):
    import json

    out = tmp_path / "profile.json"
    assert main(["profile", "--nodes", "2", "--ppn", "1", "--size", "512K",
                 "--format", "json", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["elapsed_us"] > 0
    assert doc["links"] and doc["category_time_us"]


def test_profile_json_stdout(capsys):
    import json

    assert main(["profile", "--nodes", "2", "--ppn", "1", "--size", "512K",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_messages"] > 0


def test_explain(capsys):
    assert main(["explain", "--codec", "mpc", "--size", "512K"]) == 0
    out = capsys.readouterr().out
    assert "critical-path attribution" in out
    assert "rank 0 -> 1" in out


def test_trace_latency(tmp_path, capsys):
    import json

    from repro.mpi.comm import PIPELINE_STEPS

    out = tmp_path / "t.json"
    assert main(["trace", "latency", "--codec", "mpc", "--size", "512K",
                 "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert set(PIPELINE_STEPS) <= names
    assert doc["otherData"]["metrics"]["counters"]


def test_trace_collective(tmp_path):
    import json

    out = tmp_path / "t.json"
    assert main(["trace", "allgather", "--codec", "none", "--size", "256K",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "collective" in cats


def test_trace_unknown_codec():
    with pytest.raises(SystemExit):
        main(["trace", "latency", "--codec", "lz4"])


def test_chaos(capsys):
    assert main(["chaos", "--sizes", "256K", "--iters", "2",
                 "--corrupt-rate", "0.2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep" in out and "all payloads verified" in out


def test_chaos_banner_names_only_the_plans_knobs(capsys):
    """The banner names the seed and the knobs the flags changed."""
    assert main(["chaos", "--sizes", "256K", "--iters", "1"]) == 0
    banner = capsys.readouterr().out.splitlines()[0]
    assert banner == "chaos sweep under seed=1 corrupt_rate=0.05"


@pytest.mark.parametrize("argv", [
    ["latency", "--sizes", "4X"],
    ["latency", "--sizes", "256K,1.2.3M"],
    ["chaos", "--sizes", "1.5"],
    ["allgather", "--size", "0.3K"],
    ["profile", "--size", "-4"],
    ["trace", "latency", "--size", "1.5"],
    ["explain", "--size", "4X"],
])
def test_malformed_sizes_are_usage_errors(argv, capsys):
    """Every size flag reports a bad value as a usage error (exit 2)
    naming it, before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and repr(argv[-1].split(",")[-1]) in err


def test_chaos_with_drops(capsys):
    assert main(["chaos", "--sizes", "256K", "--iters", "2", "--seed", "2",
                 "--corrupt-rate", "0.1", "--drop-rate", "0.1",
                 "--config", "zfp8"]) == 0
    assert "all payloads verified" in capsys.readouterr().out


def test_check_lint_clean(capsys):
    assert main(["check", "--lint"]) == 0
    out = capsys.readouterr().out
    assert "[ok] lint" in out and "check: clean" in out


def test_check_lint_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--lint", "--path", str(bad)])
    assert exc.value.code == 1
    assert "RPR001" in capsys.readouterr().out


def test_check_trace_files(tmp_path, capsys):
    import json
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "golden_trace_mpc.json"
    assert main(["check", "--trace", str(golden), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert [p["pass"] for p in doc["passes"]] == ["trace"]


def test_check_fresh_export_sanitizes_clean(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trace", "latency", "--codec", "zfp", "--size", "512K",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--trace", str(out)]) == 0
    assert "[ok] trace" in capsys.readouterr().out


def test_check_asan_smoke(capsys):
    assert main(["check", "--asan"]) == 0
    out = capsys.readouterr().out
    assert "[ok] asan" in out and "clean:" in out


def test_check_selftest(capsys):
    assert main(["check", "--selftest"]) == 0
    assert "all known-bad fixtures detected" in capsys.readouterr().out


def test_bench_asan_flag():
    """bench has no sanitizer switch: a run turns the sanitizer on
    itself (``Cluster.run(asan=True)``, run_chaos, ``check --asan``)."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--quick", "--asan"])
    assert exc.value.code == 2


# -- RPRT telemetry container ------------------------------------------------

GOLDEN_RPRT = Path(__file__).parent / "data" / "golden_trace_mpc.rprt"


def test_trace_rprt_export(tmp_path, capsys):
    from repro.analysis.rprt import RprtReader, is_rprt

    out = tmp_path / "t.rprt"
    assert main(["trace", "latency", "--codec", "mpc", "--size", "512K",
                 "--out", str(out)]) == 0  # format inferred from extension
    assert "[rprt]" in capsys.readouterr().out
    assert is_rprt(out)
    with RprtReader(out) as r:
        assert r.n_spans > 0
        assert "telemetry.rprt_bytes_written" in r.metrics()["counters"]


def test_trace_format_flag_overrides_extension(tmp_path, capsys):
    from repro.analysis.rprt import is_rprt

    out = tmp_path / "t.trace"
    assert main(["trace", "latency", "--codec", "none", "--size", "256K",
                 "--format", "rprt", "--out", str(out)]) == 0
    assert is_rprt(out)


def test_trace_convert_cli(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden_trace_mpc.json"
    rprt = tmp_path / "t.rprt"
    back = tmp_path / "back.json"
    assert main(["trace", "convert", str(golden), str(rprt)]) == 0
    assert main(["trace", "convert", str(rprt), str(back)]) == 0
    assert "[json]" in capsys.readouterr().out
    assert back.read_bytes() == golden.read_bytes()


def test_trace_convert_usage_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "convert", "only-one-arg"])
    with pytest.raises(SystemExit):
        main(["trace", "convert", str(tmp_path / "missing.json"),
              str(tmp_path / "out.rprt")])
    with pytest.raises(SystemExit):  # stray positionals on a workload
        main(["trace", "latency", "stray.json"])


def test_check_trace_accepts_rprt(capsys):
    import json

    assert main(["check", "--trace", str(GOLDEN_RPRT),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_check_loads_each_trace_file_once(monkeypatch, capsys):
    import json
    from collections import Counter

    from repro.analysis import traceio
    from repro.check import run_check

    golden = Path(__file__).parent / "data" / "golden_trace_mpc.json"
    loads = Counter()
    stream = traceio.iter_trace_records

    def counting(path):
        loads[str(path)] += 1
        return stream(path)

    monkeypatch.setattr(traceio, "iter_trace_records", counting)
    # (the command line maps ``--trace F --hb`` to the hb pass alone)
    assert run_check(trace=True, hb=True, fmt="json",
                     trace_files=[golden, GOLDEN_RPRT]) == 0
    doc = json.loads(capsys.readouterr().out)
    # both passes read both files, off one load each
    assert [p["checked"] for p in doc["passes"]] == \
        [[str(golden), str(GOLDEN_RPRT)]] * 2
    assert loads == {str(golden): 1, str(GOLDEN_RPRT): 1}


def test_explain_trace_file_parity(capsys):
    golden = Path(__file__).parent / "data" / "golden_trace_mpc.json"
    assert main(["explain", "--trace", str(GOLDEN_RPRT)]) == 0
    from_rprt = capsys.readouterr().out
    assert main(["explain", "--trace", str(golden)]) == 0
    assert capsys.readouterr().out == from_rprt
    assert "slowest" in from_rprt or from_rprt.strip()


def test_profile_trace_file(capsys):
    assert main(["profile", "--trace", str(GOLDEN_RPRT)]) == 0
    out = capsys.readouterr().out
    assert "link activity" in out and "telemetry container:" not in out


def test_profile_trace_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["profile", "--trace", str(tmp_path / "missing.rprt")])
