"""RPRT telemetry container: format, round trips, streaming analysis.

Covers the acceptance criteria of the self-describing binary container:

* trace -> RPRT -> JSON -> RPRT is bit-stable and JSON -> RPRT -> JSON
  is byte-identical (``repro trace convert`` is lossless both ways);
* the committed v1 fixture (``tests/data/golden_trace_mpc.rprt``) stays
  readable — on-disk backward compatibility;
* truncated and corrupt-block containers are rejected (CRC-32);
* the mmap reader is deterministic and filters stream block-by-block;
* analysis passes (sanitizer, critical path, CommProfile) produce
  identical findings fed either format;
* trace files are ingested with bounded memory (tracemalloc-measured);
* the container dogfoods its own ``telemetry.*`` metrics.
"""

import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import snapshot
from repro.analysis.critpath import CritPathAnalyzer
from repro.analysis.export import write_chrome_json
from repro.analysis.rprt import (RPRT_MAGIC, RprtError, RprtReader,
                                 RprtWriter, is_rprt, write_trace_rprt)
from repro.analysis.traceio import (convert, iter_chrome_file_events,
                                    iter_trace_records, load_trace_records,
                                    read_otherdata, trace_format)
from repro.check.sanitize import TraceSanitizer

DATA = Path(__file__).parent / "data"
GOLDEN_JSON = DATA / "golden_trace_mpc.json"
GOLDEN_RPRT = DATA / "golden_trace_mpc.rprt"


def _golden_result():
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_trace_export import run_golden_workload

    return run_golden_workload()


# -- container fundamentals --------------------------------------------------

def test_magic_detection(tmp_path):
    assert is_rprt(GOLDEN_RPRT)
    assert not is_rprt(GOLDEN_JSON)
    assert not is_rprt(tmp_path / "missing.rprt")
    assert trace_format(GOLDEN_RPRT) == "rprt"
    assert trace_format(GOLDEN_JSON) == "json"


def test_writer_reader_kv_types(tmp_path):
    w = RprtWriter(block_codec="none")
    w.add_kv("an/int", 42)
    w.add_kv("a/float", 2.5)
    w.add_kv("a/bool", True)
    w.add_kv("a/str", "héllo")
    w.add_kv("a/json", {"k": [1, 2], "n": None})
    w.add_block("col", np.arange(5, dtype="<i8"))
    w.write(tmp_path / "t.rprt")
    with RprtReader(tmp_path / "t.rprt") as r:
        assert r.kv("an/int") == 42 and isinstance(r.kv("an/int"), int)
        assert r.kv("a/float") == 2.5
        assert r.kv("a/bool") is True
        assert r.kv("a/str") == "héllo"
        assert r.kv("a/json") == {"k": [1, 2], "n": None}
        assert r.read("col").tolist() == [0, 1, 2, 3, 4]


def test_blocks_are_aligned_and_crc_checked(tmp_path):
    w = RprtWriter(block_codec="none")
    w.add_block("odd", np.frombuffer(b"xyz", dtype=np.uint8))
    w.add_block("ints", np.arange(7, dtype="<i4"))
    w.write(tmp_path / "t.rprt")
    with RprtReader(tmp_path / "t.rprt") as r:
        for name in r.block_names:
            assert r.block_info(name).offset % 8 == 0
        assert bytes(r.read("odd")) == b"xyz"


def test_block_compression_is_lossless(tmp_path):
    data = np.cumsum(np.ones(4096)) / 3.0  # smooth => compressible
    w = RprtWriter(block_codec="mpc")
    w.add_block("smooth", data.astype("<f8"))
    stats = w.write(tmp_path / "t.rprt")
    assert stats["stored_bytes"] < stats["raw_bytes"]
    with RprtReader(tmp_path / "t.rprt") as r:
        assert r.block_info("smooth").codec == "mpc"
        assert r.read("smooth").tobytes() == data.astype("<f8").tobytes()


def test_incompressible_blocks_fall_back_to_raw(tmp_path):
    rng = np.random.default_rng(7)
    noise = rng.bytes(4096)
    w = RprtWriter(block_codec="mpc")
    w.add_block("noise", np.frombuffer(noise, dtype=np.uint8))
    w.write(tmp_path / "t.rprt")
    with RprtReader(tmp_path / "t.rprt") as r:
        assert r.block_info("noise").codec == ""
        assert bytes(r.read("noise")) == noise


def test_lossy_block_codec_rejected():
    with pytest.raises(RprtError):
        RprtWriter(block_codec="zfp")


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bogus.rprt"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(RprtError):
        RprtReader(p)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "future.rprt"
    p.write_bytes(RPRT_MAGIC + struct.pack("<IQQ", 99, 0, 0))
    with pytest.raises(RprtError):
        RprtReader(p)


def test_truncated_container_rejected(tmp_path):
    whole = GOLDEN_RPRT.read_bytes()
    # Cut inside the header and inside the block region.
    for cut in (10, len(whole) // 2):
        p = tmp_path / f"cut{cut}.rprt"
        p.write_bytes(whole[:cut])
        with pytest.raises(RprtError):
            with RprtReader(p) as r:
                for name in r.block_names:
                    r.read(name)


def test_corrupt_block_fails_crc(tmp_path):
    whole = bytearray(GOLDEN_RPRT.read_bytes())
    with RprtReader(GOLDEN_RPRT) as r:
        b = r.block_info("spans/0/ts_us")
    whole[b.offset] ^= 0xFF
    p = tmp_path / "corrupt.rprt"
    p.write_bytes(bytes(whole))
    with RprtReader(p) as r:
        with pytest.raises(RprtError):
            r.read("spans/0/ts_us")
        # verify=False skips the integrity gate (for forensics).
        r.read("spans/0/ts_us", verify=False)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.rprt"
    p.write_bytes(b"")
    with pytest.raises(RprtError):
        RprtReader(p)


# -- malformed trace files ---------------------------------------------------

def _rewritten(tmp_path, kvs=(), blocks=(), strings=None):
    """The golden container re-serialized (so every CRC is valid) with
    some key-values, blocks or the string table replaced."""
    kvs, blocks = dict(kvs), dict(blocks)
    with RprtReader(GOLDEN_RPRT) as r:
        if strings is not None:
            items = [s.encode() for s in strings(r.strings())]
            blocks["strings/offsets"] = np.cumsum(
                [0] + [len(b) for b in items], dtype="u8")
            blocks["strings/blob"] = b"".join(items)
        w = RprtWriter(block_codec="none")
        for key, value in r.kvs.items():
            w.add_kv(key, kvs.get(key, value))
        for name in r.block_names:
            w.add_block(name, blocks.get(name, r.read(name).copy()))
    w.write(tmp_path / "bad.rprt")
    return tmp_path / "bad.rprt"


def _flipped(tmp_path):
    whole = bytearray(GOLDEN_RPRT.read_bytes())
    with RprtReader(GOLDEN_RPRT) as r:
        whole[r.block_info("spans/0/span_id").offset] ^= 0xFF
    (tmp_path / "bad.rprt").write_bytes(bytes(whole))
    return tmp_path / "bad.rprt"


def _events(tmp_path, x=(), drop=(), process="rank 0"):
    """A two-span Chrome trace whose second X event has ``x`` set and
    ``drop`` removed."""
    events = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
               "args": {"name": process}},
              {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
               "args": {"name": "main"}}]
    for i in range(2):
        events.append({"name": "s", "cat": "k", "ph": "X", "pid": 0, "tid": 0,
                       "ts": float(i), "dur": 1.0, "args": {"span_id": i + 1}})
    events[-1].update(x)
    for key in drop:
        del events[-1][key]
    with open(tmp_path / "bad.json", "w") as fh:
        write_chrome_json(fh, {"metrics": {}}, events)
    return tmp_path / "bad.json"


#: name -> (build the file, the error, what its message says)
MALFORMED = {
    "rprt-corrupt-block": (_flipped, RprtError, "CRC mismatch on block "
                           "'spans/0/span_id'"),
    "rprt-missing-group": (lambda t: _rewritten(t, kvs={"spans/groups": 2}),
                           RprtError, "no block 'spans/1/ts_us'"),
    "rprt-id-outside-table": (
        lambda t: _rewritten(t, blocks={
            "spans/0/category": np.full(22, 10**6, dtype="u4")}),
        RprtError, "span group 0 points outside the string table"),
    "rprt-meta-not-an-object": (
        lambda t: _rewritten(t, strings=lambda table: [
            "[1]" if s.startswith("{") else s for s in table]),
        RprtError, "is not a JSON object"),
    "rprt-meta-not-json": (
        lambda t: _rewritten(t, strings=lambda table: [
            s[:-1] if s.startswith("{") else s for s in table]),
        RprtError, "is not a JSON object"),
    "json-no-pid": (lambda t: _events(t, drop=["pid"]), ValueError,
                    "event 3 has no 'pid'"),
    "json-no-tid": (lambda t: _events(t, drop=["tid"]), ValueError,
                    "event 3 has no 'tid'"),
    "json-no-ts": (lambda t: _events(t, drop=["ts"]), ValueError,
                   "event 3 has no 'ts'"),
    "json-no-dur": (lambda t: _events(t, drop=["dur"]), ValueError,
                    "event 3 has no 'dur'"),
    "json-text-ts": (lambda t: _events(t, x={"ts": "soon"}), ValueError,
                     "event 3: "),
    "json-args-not-an-object": (lambda t: _events(t, x={"args": 5}),
                                ValueError, "event 3: "),
    "json-rank-x": (lambda t: _events(t, process="rank x"), ValueError,
                    "event 2: invalid literal"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_trace_is_a_typed_error_everywhere(case, tmp_path):
    """Every reader raises the decoder's error (never an ``IndexError``,
    a ``KeyError`` or the ``BufferError`` of closing a map an error
    still holds views of), and every CLI entry point reports it in one
    line."""
    from repro.__main__ import main
    from repro.analysis import CommProfile

    build, error, says = MALFORMED[case]
    path = build(tmp_path)
    out = str(tmp_path / "out")
    for read in (load_trace_records, CommProfile.from_trace_file,
                 lambda p: list(iter_trace_records(p)),
                 lambda p: convert(p, out)):
        with pytest.raises(error) as raised:
            read(path)
        assert type(raised.value) is error
        assert str(path) in str(raised.value) and says in str(raised.value)
    for argv in (["explain", "--trace", str(path)],
                 ["check", "--trace", str(path)],
                 ["check", "--hb", "--trace", str(path)],
                 ["profile", "--trace", str(path)],
                 ["trace", "convert", str(path), out]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        message = exit_.value.code
        assert message.startswith(("cannot read ", "cannot convert "))
        assert says in message and "\n" not in message


def test_close_unmaps_on_the_clean_path():
    with RprtReader(GOLDEN_RPRT) as r:
        mm = r._mm
        assert len(list(r.spans())) == r.n_spans
    assert mm.closed and r._mm is None


# -- determinism -------------------------------------------------------------

def test_writer_and_reader_are_deterministic(tmp_path):
    # Two fresh same-seed runs (telemetry counters are cumulative per
    # registry, so back-to-back writes of one live tracer differ by
    # design — same *state* must produce the same bytes).
    for name in ("a.rprt", "b.rprt"):
        res = _golden_result()
        write_trace_rprt(res.tracer, tmp_path / name, elapsed=res.elapsed)
    a = (tmp_path / "a.rprt").read_bytes()
    assert a == (tmp_path / "b.rprt").read_bytes()
    with RprtReader(tmp_path / "a.rprt") as r:
        once = [r.read(n).tobytes() for n in r.block_names]
        again = [r.read(n).tobytes() for n in r.block_names]
    assert once == again


# -- round trips -------------------------------------------------------------

def test_json_to_rprt_to_json_byte_identical(tmp_path):
    convert(GOLDEN_JSON, tmp_path / "t.rprt", to="rprt")
    convert(tmp_path / "t.rprt", tmp_path / "back.json", to="json")
    assert (tmp_path / "back.json").read_bytes() == GOLDEN_JSON.read_bytes()


def test_rprt_to_json_to_rprt_bit_stable(tmp_path):
    res = _golden_result()
    write_trace_rprt(res.tracer, tmp_path / "t.rprt", elapsed=res.elapsed)
    convert(tmp_path / "t.rprt", tmp_path / "t.json", to="json")
    convert(tmp_path / "t.json", tmp_path / "back.rprt", to="rprt")
    assert (tmp_path / "t.rprt").read_bytes() == \
        (tmp_path / "back.rprt").read_bytes()


def test_committed_v1_fixture_stays_readable():
    """On-disk backward compatibility: the committed container decodes
    to exactly the committed golden Chrome trace."""
    with RprtReader(GOLDEN_RPRT) as r:
        assert r.version == 1
        assert r.n_spans > 0
        assert r.kv("producer") == "repro"


def test_committed_v1_fixture_converts_to_golden_json(tmp_path):
    convert(GOLDEN_RPRT, tmp_path / "out.json", to="json")
    assert (tmp_path / "out.json").read_bytes() == GOLDEN_JSON.read_bytes()


def test_rprt_smaller_than_chrome_json(tmp_path):
    assert GOLDEN_RPRT.stat().st_size < GOLDEN_JSON.stat().st_size
    res = _golden_result()
    stats = write_trace_rprt(res.tracer, tmp_path / "t.rprt",
                             elapsed=res.elapsed)
    assert stats["ratio"] > 1.0
    assert (tmp_path / "t.rprt").stat().st_size < GOLDEN_JSON.stat().st_size


def test_convert_infers_target_and_rejects_noop(tmp_path):
    stats = convert(GOLDEN_JSON, tmp_path / "t.rprt")  # by extension
    assert stats["format"] == "rprt"
    stats = convert(tmp_path / "t.rprt", tmp_path / "t.out")  # opposite of src
    assert stats["format"] == "json"
    with pytest.raises(RprtError):
        convert(GOLDEN_JSON, tmp_path / "x.json", to="json")
    with pytest.raises(RprtError):
        convert(tmp_path / "missing.json", tmp_path / "y.rprt")


# -- streamed reader ---------------------------------------------------------

def test_spans_match_chrome_records():
    by_rprt = load_trace_records(GOLDEN_RPRT).records
    by_json = load_trace_records(GOLDEN_JSON).records
    assert len(by_rprt) == len(by_json)
    assert by_rprt == by_json


def test_spans_filters():
    with RprtReader(GOLDEN_RPRT) as r:
        everything = list(r.spans())
        gpu = list(r.spans(track="gpu"))
        assert gpu == [s for s in everything if s.track == "gpu"]
        rank0 = list(r.spans(rank=0))
        assert rank0 and rank0 == [s for s in everything if s.rank == 0]
        t0 = everything[len(everything) // 2].t_start
        window = list(r.spans(time_range=(t0, t0 + 20e-6)))
        assert window == [s for s in everything  # inclusive overlap
                          if s.t_start <= t0 + 20e-6 and s.t_end >= t0]
        assert list(r.spans(track="no-such-track")) == []


def test_time_range_skips_whole_groups(tmp_path):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    for i in range(300):
        tracer.span(float(i), float(i) + 0.5, "tick", f"t{i}", rank=0)
    write_trace_rprt(tracer, tmp_path / "t.rprt", spans_per_block=100)
    with RprtReader(tmp_path / "t.rprt") as r:
        assert r.n_span_groups == 3
        got = list(r.spans(time_range=(250.25, 259.75)))
        assert [g.label for g in got] == [f"t{i}" for i in range(250, 260)]


def test_read_otherdata_without_loading_events():
    other = read_otherdata(GOLDEN_RPRT)
    assert other == read_otherdata(GOLDEN_JSON)
    assert other["elapsed_seconds"] > 0
    assert "metrics" in other


def test_iter_chrome_file_events_streams_all_events():
    events = list(iter_chrome_file_events(GOLDEN_JSON))
    doc = json.loads(GOLDEN_JSON.read_text())
    assert events == doc["traceEvents"]


# -- bounded-memory ingestion ------------------------------------------------

def _big_trace(path, n_events: int) -> None:
    meta = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": "rank 0"}},
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
             "args": {"name": "main"}}]

    def events():
        yield from meta
        for i in range(n_events):
            yield {"name": "step", "cat": "pipeline", "ph": "X", "pid": 0,
                   "tid": 0, "ts": float(i), "dur": 0.5,
                   "args": {"span_id": i + 1, "note": "x" * 64}}

    with open(path, "w") as fh:
        write_chrome_json(fh, {"metrics": {}}, events())


def test_streamed_ingestion_bounds_memory(tmp_path):
    """Satellite: the sanitizer path must not json.loads the full text.
    Peak allocation while *streaming* the events stays far below the
    file size (the old full-text parse held text + DOM at once)."""
    p = tmp_path / "big.json"
    _big_trace(p, 20000)
    size = p.stat().st_size
    assert size > 3_000_000

    tracemalloc.start()
    n = 0
    for _ in iter_trace_records(p):
        n += 1
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert n == 20000
    assert streamed_peak < size / 2

    tracemalloc.start()
    doc = json.loads(p.read_text())
    _, full_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(doc["traceEvents"]) == 20002
    assert streamed_peak < full_peak / 2


# -- analysis parity ---------------------------------------------------------

def _write_tracer_both(tracer, tmp_path, stem):
    """Export one tracer as Chrome JSON and RPRT; return the paths."""
    from repro.analysis.export import write_chrome_trace

    pj, pr = tmp_path / f"{stem}.json", tmp_path / f"{stem}.rprt"
    write_chrome_trace(tracer, pj, elapsed=0.0)
    write_trace_rprt(tracer, pr, elapsed=0.0)
    return pj, pr


def test_empty_trace_round_trips(tmp_path):
    from repro.sim.trace import Tracer

    pj, pr = _write_tracer_both(Tracer(), tmp_path, "empty")
    assert trace_format(pj) == "json" and trace_format(pr) == "rprt"
    for p in (pj, pr):
        assert load_trace_records(p).records == []
        assert read_otherdata(p).get("elapsed_seconds") == 0.0
    # Conversion of a zero-span trace still produces a valid container
    # of the opposite format, also empty.
    convert(pj, tmp_path / "e1.rprt", to="rprt")
    convert(pr, tmp_path / "e1.json", to="json")
    assert load_trace_records(tmp_path / "e1.rprt").records == []
    assert load_trace_records(tmp_path / "e1.json").records == []


def test_single_span_trace_identical_across_formats(tmp_path):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    tracer.span(1e-6, 3e-6, "compute", "lonely", rank=0, track="main",
                seq=7)
    pj, pr = _write_tracer_both(tracer, tmp_path, "one")
    by_json = load_trace_records(pj).records
    by_rprt = load_trace_records(pr).records
    assert len(by_json) == len(by_rprt) == 1
    assert by_json == by_rprt
    rec = by_json[0]
    assert (rec.category, rec.label, rec.rank) == ("compute", "lonely", 0)
    assert rec.meta["seq"] == 7
    assert TraceSanitizer(by_json).check_all() == []


def test_convert_idempotent_on_zero_block_rprt(tmp_path):
    """RPRT -> JSON -> RPRT is bit-stable even when the container holds
    zero span blocks (nothing to re-chunk, strings table is just "")."""
    from repro.sim.trace import Tracer

    first = tmp_path / "z.rprt"
    write_trace_rprt(Tracer(), first, elapsed=0.0)
    convert(first, tmp_path / "z.json", to="json")
    convert(tmp_path / "z.json", tmp_path / "z2.rprt", to="rprt")
    assert (tmp_path / "z2.rprt").read_bytes() == first.read_bytes()


def test_sanitizer_findings_identical_across_formats():
    a = TraceSanitizer.from_trace_file(GOLDEN_RPRT).check_all()
    b = TraceSanitizer.from_trace_file(GOLDEN_JSON).check_all()
    assert [v.as_dict() for v in a] == [v.as_dict() for v in b]


def test_critpath_explain_identical_across_formats():
    a = CritPathAnalyzer(load_trace_records(GOLDEN_RPRT)).explain(n=5)
    b = CritPathAnalyzer(load_trace_records(GOLDEN_JSON)).explain(n=5)
    assert a == b
    assert "critical path" in a.lower() or a  # non-empty report


def test_commprofile_identical_across_formats():
    from repro.analysis import CommProfile

    a = CommProfile.from_trace_file(GOLDEN_RPRT)
    b = CommProfile.from_trace_file(GOLDEN_JSON)
    assert a.as_dict() == b.as_dict()
    assert a.n_messages > 0 and a.total_wire_bytes > 0


# -- telemetry dogfooding ----------------------------------------------------

def test_telemetry_metrics_stamped_into_container(tmp_path):
    res = _golden_result()
    stats = write_trace_rprt(res.tracer, tmp_path / "t.rprt",
                             elapsed=res.elapsed)
    # Live registry updated...
    assert res.tracer.metrics.counter("telemetry.rprt_bytes_written") == \
        stats["stored_bytes"]
    assert res.tracer.metrics.gauge("telemetry.rprt_compress_ratio") == \
        stats["ratio"]
    # ...and the embedded dump self-describes the file.
    with RprtReader(tmp_path / "t.rprt") as r:
        metrics = r.metrics()
    assert metrics["counters"]["telemetry.rprt_bytes_written"] == \
        stats["stored_bytes"]
    assert metrics["gauges"]["telemetry.rprt_compress_ratio"] == \
        stats["ratio"]


def test_commprofile_surfaces_telemetry(tmp_path):
    from repro.analysis import CommProfile

    res = _golden_result()
    write_trace_rprt(res.tracer, tmp_path / "t.rprt", elapsed=res.elapsed)
    prof = CommProfile.from_trace_file(tmp_path / "t.rprt")
    assert prof.telemetry["rprt_bytes_written"] > 0
    assert prof.telemetry["rprt_compress_ratio"] > 1.0
    assert "telemetry container:" in prof.report()
    assert prof.as_dict()["telemetry"]["rprt_compress_ratio"] > 1.0


# -- snapshots are JSON ------------------------------------------------------

def test_snapshot_reader_rejects_trace_container():
    """A trace container handed to ``--compare`` is one line naming it."""
    for kind in ("bench", "hostperf"):
        with pytest.raises(ValueError, match=re.escape(str(GOLDEN_RPRT))):
            snapshot.load(GOLDEN_RPRT, kind)
