"""Chrome-trace export: structure checks and a golden-trace regression.

The golden file (``tests/data/golden_trace_mpc.json``) is the full
exported trace of a fixed 2-rank rendezvous MPC-OPT send.  The
comparison is over the trace *skeleton* — span names, categories, track
assignment and parent nesting — so legitimate performance-model
recalibration (which shifts timestamps) does not break the test, while
any change to what is traced or how spans nest does.

Regenerate after an intentional instrumentation change with::

    PYTHONPATH=src python tests/make_golden_trace.py
"""

import json
from pathlib import Path

import numpy as np

from repro.analysis.export import NETWORK_PID, chrome_events, exported_form
from repro.core import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.mpi.comm import PIPELINE_STEPS
from repro.network.presets import machine_preset

GOLDEN = Path(__file__).parent / "data" / "golden_trace_mpc.json"


def golden_rank_fn(comm):
    """Rank 0 sends 256 KiB of float32 to rank 1 (rendezvous)."""
    if comm.rank == 0:
        yield from comm.send(np.linspace(0.0, 1.0, 65536, dtype=np.float32),
                             1, tag=3)
        return None
    got = yield from comm.recv(0, tag=3)
    return np.asarray(got).nbytes


def run_golden_workload():
    """2-rank inter-node rendezvous send, 256 KiB float32, MPC-OPT."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)
    return cluster.run(golden_rank_fn, config=CompressionConfig.mpc_opt())


def chrome_doc(tracer, elapsed=None):
    """The Chrome-trace document as a dict, from the one event source."""
    other, groups = exported_form(tracer, elapsed)
    return {"displayTimeUnit": "ms", "otherData": other,
            "traceEvents": list(chrome_events(groups))}


def export_golden_doc():
    res = run_golden_workload()
    return chrome_doc(res.tracer, res.elapsed)


def _threads(doc):
    return {(e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"}


def _skeleton(doc):
    """(pid, track, category, name, parent name) for every X event."""
    threads = _threads(doc)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in xs}
    rows = []
    for e in xs:
        parent = by_id.get(e["args"].get("parent_id"))
        rows.append((e["pid"], threads[(e["pid"], e["tid"])], e["cat"],
                     e["name"], parent["name"] if parent else None))
    return sorted(rows)


def test_chrome_trace_is_valid():
    doc = export_golden_doc()
    assert json.loads(json.dumps(doc)) == doc  # JSON-serializable
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["args"]["span_id"], int)
    assert {0, 1} <= {e["pid"] for e in xs}  # one track per rank at least
    assert any(e["pid"] == NETWORK_PID for e in xs)  # wire lane


def test_all_pipeline_steps_exported():
    doc = export_golden_doc()
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert set(PIPELINE_STEPS) <= names


def test_nesting_is_well_formed_in_export():
    doc = export_golden_doc()
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in xs}
    for e in xs:
        parent = by_id.get(e["args"].get("parent_id"))
        if parent is not None:
            assert parent["ts"] <= e["ts"]
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def test_matches_golden_trace():
    golden = json.loads(GOLDEN.read_text())
    doc = export_golden_doc()
    assert _skeleton(doc) == _skeleton(golden)
    assert _threads(doc) == _threads(golden)


def test_streamed_writer_matches_committed_golden_bytes(tmp_path):
    """write_chrome_trace streams event-by-event, yet its bytes equal
    the committed golden file (which was produced by a full
    ``json.dumps(doc, indent=1, sort_keys=True)``)."""
    from repro.analysis import write_chrome_trace

    res = run_golden_workload()
    out = tmp_path / "stream.json"
    write_chrome_trace(res.tracer, out, elapsed=res.elapsed)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_streamed_writer_matches_json_dump(tmp_path):
    """The streaming serializer and the document serializer agree byte
    for byte on the same tracer (including the empty-trace edge)."""
    from repro.analysis import write_chrome_trace
    from repro.sim.trace import Tracer

    res = run_golden_workload()
    for tracer, elapsed in ((res.tracer, res.elapsed), (Tracer(), None)):
        doc = chrome_doc(tracer, elapsed)
        out = tmp_path / "stream.json"
        write_chrome_trace(tracer, out, elapsed=elapsed)
        assert out.read_text() == \
            json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_golden_has_compression_under_sender_prepare():
    """The MPC kernel must nest (possibly transitively) under the
    sender_prepare pipeline step — the hierarchy the tentpole adds."""
    golden = json.loads(GOLDEN.read_text())
    xs = [e for e in golden["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in xs}
    kernels = [e for e in xs if e["cat"] == "compression_kernel"]
    assert kernels
    for k in kernels:
        names = set()
        cur = k
        while cur["args"].get("parent_id") in by_id:
            cur = by_id[cur["args"]["parent_id"]]
            names.add(cur["name"])
        assert "sender_prepare" in names or "receiver_complete" in names
