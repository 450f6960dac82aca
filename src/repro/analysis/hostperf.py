"""Host-performance regression harness: microbench matrix, schema-
versioned ``HOSTPERF_*.json`` snapshots, and relative-threshold gating.

This is the *wall-clock* counterpart of :mod:`repro.analysis.bench`:
``bench`` gates **simulated** results with zero tolerance (the
simulation is deterministic), while ``hostperf`` tracks how fast the
*host* executes the hot paths — codec kernels, the event loop, span
bookkeeping, and the end-to-end ``bench --quick`` run.  Host timing is
inherently noisy, so comparisons use median-of-k timing and a
configurable **relative** threshold instead of byte identity, and CI
runs the comparison in advisory mode.

Every benchmark here exercises real code on deterministic data:

* ``codec/*`` — encode/decode of each registry codec over two dataset
  families and two sizes, reported in MB/s of raw input;
* ``engine/events`` — raw event-loop throughput (timeout-chain
  processes, no tracer);
* ``engine/spans`` — the same loop with hierarchical span bookkeeping,
  isolating tracer overhead; its ``trace_cost_ratio`` is its ``run_s``
  over an untraced run timed back to back in the same benchmark;
* ``engine/scale/*`` — collective-shaped event loops at 256 and 1024
  ranks (lockstep rounds with same-instant wakeups, spawn churn,
  fan-in gates and interrupt storms), the workload the calendar
  scheduler and micro-event freelist exist for.  Events/sec divides
  the simulator's own dispatched-event count by the timed run; a
  separate pass records tracemalloc peak heap;
* ``e2e/bench-quick`` — wall seconds of the full quick benchmark
  matrix, the number a developer actually waits on;
* ``e2e/scale-allgather-64`` — wall seconds of the 64-rank point of the
  scale matrix, the same untraced eager-message path CI's scale-smoke
  job budgets at 1024 ranks;
* ``msg/events_per_message`` — scheduler events per point-to-point
  message on that allgather, traced.  A deterministic count, not a
  timing: the budget the eager message path is held to.
* ``e2e/coll-relay-16`` — wall seconds of the three keep-compressed
  collectives of perfbench's ``coll-relay-16`` workload (16 ranks,
  ``mpc-opt``: allgather 512 KiB, ring allreduce 2 MiB, bcast 2 MiB of
  ``msg_sppm``), untraced, cold codec cache;
* ``e2e/codec-stream`` — wall seconds of perfbench's ``codec-stream``
  workload (2 ranks, four distinct ``wave`` payloads of 256 KiB - 16 MiB
  point to point, once each under ``mpc-opt``, ``zfp8`` and
  ``zfp8-pipe``), untraced, cold codec cache: the large-message kernel
  regime, which the quick codec matrix (<= 2 MiB) stops short of;
* ``coll/codec_decodes_per_message`` — real ``decompress`` executions
  per point-to-point message of an 8-rank ``mpc-opt`` ring allreduce.
  A deterministic count: the data plane's budget is one decode per
  arrival plus one per distinct final chunk, and none of a buffer the
  rank already holds.

Engine benchmarks also report ``peak_heap_bytes`` (tracemalloc peak,
measured in its own untimed pass so instrumentation overhead never
contaminates the timing) — ``*_bytes`` metrics gate like times: bigger
is worse.

Snapshot schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "label": "<free-form>",
      "mode": "quick" | "full",
      "reps": <k>,
      "benchmarks": {
        "<name>": {
          "kind": "codec" | "engine" | "engine-scale" | "e2e" | "msg"
                  | "coll-relay" | "coll-decodes" | "codec-stream",
          "params": {...},
          "metrics": {"<metric>": <number>, ...}
        }
      }
    }

Metric naming carries the comparison direction: ``*_s`` metrics are
times and ``*_ratio`` metrics cost ratios (bigger is worse), ``*_per_s``
metrics are rates (smaller is worse), ``*_per_message`` metrics are
exact counts (bigger is worse, at zero tolerance).  :func:`compare`
uses exactly that convention.

Wall-clock reads below are pragma'd for the determinism linter: this
module *is* the sanctioned wall-clock consumer — its measurements never
feed simulated results, only advisory host-speed tracking.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

import numpy as np

from repro.utils.units import KiB, MiB

__all__ = [
    "SCHEMA_VERSION", "Microbench", "benchmark_matrix", "collect",
    "dumps", "write", "load", "compare", "selftest",
    "PerfDrift", "PerfComparison",
]

SCHEMA_VERSION = 1

#: codec configurations tracked by the matrix — chosen to cover every
#: bit-assembly path: byte-aligned and odd-rate ZFP 1-D, float64 ZFP,
#: the 2-D codec, both MPC stride regimes, and the CPU comparators.
CODEC_CONFIGS = (
    ("zfp8-f32", "zfp", {"rate": 8}, "float32"),
    ("zfp7-f32", "zfp", {"rate": 7}, "float32"),
    ("zfp16-f64", "zfp", {"rate": 16}, "float64"),
    ("zfp2d8-f32", "zfp2d", {"rate": 8}, "float32"),
    ("mpc-d1-f32", "mpc", {"dimensionality": 1}, "float32"),
    ("mpc-d3-f64", "mpc", {"dimensionality": 3}, "float64"),
    ("fpc-f64", "fpc", {}, "float64"),
    ("gfc-f64", "gfc", {}, "float64"),
    ("sz-f32", "sz", {"error_bound": 1e-3}, "float32"),
)

DATASETS = ("smooth", "rough")
QUICK_SIZES = (256 * KiB, 2 * MiB)
FULL_SIZES = (256 * KiB, 2 * MiB, 16 * MiB)


@dataclass(frozen=True)
class Microbench:
    """One entry of the host-performance matrix."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)


def benchmark_matrix(quick: bool = True) -> list[Microbench]:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    out = [
        Microbench(f"codec/{cname}/{ds}/{nbytes // KiB}K", "codec",
                   {"codec": codec, "codec_params": params, "dtype": dtype,
                    "dataset": ds, "nbytes": nbytes})
        for (cname, codec, params, dtype) in CODEC_CONFIGS
        for ds in DATASETS
        for nbytes in sizes
    ]
    scale = 1 if quick else 4
    out.append(Microbench("engine/events", "engine",
                          {"procs": 100 * scale, "steps": 60, "traced": False}))
    out.append(Microbench("engine/spans", "engine",
                          {"procs": 100 * scale, "steps": 60, "traced": True}))
    out.append(Microbench("engine/scale/256", "engine-scale",
                          {"ranks": 256, "rounds": 16}))
    out.append(Microbench("engine/scale/1024", "engine-scale",
                          {"ranks": 1024, "rounds": 8}))
    out.append(Microbench("e2e/bench-quick", "e2e", {"only": None}))
    out.append(Microbench("e2e/scale-allgather-64", "e2e",
                          {"only": "scale/allgather-64", "scale": True}))
    out.append(Microbench("msg/events_per_message", "msg",
                          {"machine": "fat-tree", "nodes": 16, "ppn": 4,
                           "nbytes": 4096}))
    out.append(Microbench("e2e/coll-relay-16", "coll-relay",
                          {"machine": "frontera-liquid", "nodes": 8, "ppn": 2,
                           "gather_nbytes": 512 * KiB,
                           "reduce_nbytes": 2 * MiB, "bcast_nbytes": 2 * MiB}))
    out.append(Microbench("e2e/codec-stream", "codec-stream",
                          {"machine": "longhorn", "nodes": 2, "ppn": 1,
                           "sizes": [256 * KiB, MiB, 4 * MiB, 16 * MiB]}))
    out.append(Microbench("coll/codec_decodes_per_message", "coll-decodes",
                          {"machine": "frontera-liquid", "nodes": 4, "ppn": 2,
                           "nbytes": 1 * MiB}))
    return out


# -- dataset + codec helpers -------------------------------------------------

def _make_data(dataset: str, nbytes: int, dtype: str, codec: str) -> np.ndarray:
    n = nbytes // np.dtype(dtype).itemsize
    seed = zlib.crc32(f"{dataset}/{nbytes}/{dtype}".encode())
    rng = np.random.default_rng(seed)
    if dataset == "smooth":
        x = np.arange(n)
        data = (np.sin(x / 17.0) * 3.0 + x / 500.0).astype(dtype)
    else:
        data = (rng.standard_normal(n) * 1e4).astype(dtype)
    if codec == "zfp2d":
        cols = 256
        return data[: (n // cols) * cols].reshape(-1, cols)
    return data


def _codec_for(name: str, params: dict):
    from repro.compression import get_compressor
    from repro.compression.zfp2d import Zfp2dCompressor

    if name == "zfp2d":
        return Zfp2dCompressor(**params)
    return get_compressor(name, **params)


# -- timing core -------------------------------------------------------------

def _time_median(fn: Callable[[], None], reps: int) -> float:
    """Median wall seconds of ``reps`` runs (after one warmup)."""
    fn()  # warmup: page in, JIT numpy ufunc caches
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()  # repro: allow-RPR001 — host-perf timing is the measured quantity here, never a simulated result
        fn()
        samples.append(time.perf_counter() - t0)  # repro: allow-RPR001 — see above
    return median(samples)


def _r(x: float, places: int = 6) -> float:
    return round(float(x), places)


def _run_codec(params: dict, reps: int) -> dict:
    data = _make_data(params["dataset"], params["nbytes"], params["dtype"],
                      params["codec"])
    codec = _codec_for(params["codec"], params["codec_params"])
    comp = codec.compress(data)
    enc_s = _time_median(lambda: codec.compress(data), reps)
    dec_s = _time_median(lambda: codec.decompress(comp), reps)
    nbytes = data.nbytes
    return {
        "encode_s": _r(enc_s), "decode_s": _r(dec_s),
        "encode_mb_per_s": _r(nbytes / enc_s / 1e6, 2),
        "decode_mb_per_s": _r(nbytes / dec_s / 1e6, 2),
        "ratio": _r(nbytes / max(1, comp.nbytes), 3),
    }


def _peak_heap(fn: Callable[[], None]) -> int:
    """tracemalloc peak of one ``fn()`` run.

    Runs in its own pass, never inside the timed reps: tracing
    allocations roughly doubles host time, which would corrupt the
    ``run_s``/``events_per_s`` numbers."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _run_engine(params: dict, reps: int) -> dict:
    from repro.sim import Simulator, Tracer

    procs, steps, traced = params["procs"], params["steps"], params["traced"]

    def one_run(traced: bool = traced) -> None:
        sim = Simulator()
        tracer = Tracer(sim) if traced else None

        def worker(sim):
            for i in range(steps):
                if tracer is not None:
                    with tracer.open_span("hostperf", "step", rank=0):
                        yield sim.timeout(1e-6)
                    tracer.span(sim.now, sim.now, "hostperf", "leaf", rank=0)
                else:
                    yield sim.timeout(1e-6)

        for _ in range(procs):
            sim.process(worker(sim))
        sim.run()

    t = _time_median(one_run, reps)
    n_events = procs * (steps + 1)  # one init event + one per timeout
    out = {"run_s": _r(t), "events_per_s": _r(n_events / t, 0),
           "peak_heap_bytes": _peak_heap(one_run)}
    if traced:
        # The untraced loop timed back to back, so box drift between
        # this entry and engine/events cancels out of the ratio.
        out["trace_cost_ratio"] = _r(
            t / _time_median(lambda: one_run(False), reps), 3)
    return out


def _scale_workload(sim, ranks: int, rounds: int) -> None:
    """Spawn the collective-shaped storm the ``engine/scale`` points
    time: every rank runs ``rounds`` lockstep iterations of spawn a
    worker, join it with a same-instant timeout (AllOf), periodically
    interrupt a straggler, then block on a shared per-round gate a
    coordinator fires — i.e. same-timestamp batches, micro-event churn,
    tombstoned waiter lists and wide fan-in dispatch."""
    from repro.sim import Interrupt

    def worker(sim):
        yield sim.timeout(1e-6)

    def straggler(sim):
        yield sim.timeout(1.0)

    def rank_proc(sim, gates, r):
        for i, gate in enumerate(gates):
            w = sim.process(worker(sim))
            yield sim.all_of([w, sim.timeout(1e-6)])
            if (i + r) % 8 == 0:
                v = sim.process(straggler(sim))
                yield sim.timeout(1e-6)
                v.interrupt("scale")
                try:
                    yield v
                except Interrupt:
                    pass
            yield gate

    def coordinator(sim, gates):
        for gate in gates:
            yield sim.timeout(3e-6)
            gate.succeed()

    gates = [sim.event() for _ in range(rounds)]
    for r in range(ranks):
        sim.process(rank_proc(sim, gates, r))
    sim.process(coordinator(sim, gates))


def _run_engine_scale(params: dict, reps: int) -> dict:
    from repro.sim import Simulator

    ranks, rounds = params["ranks"], params["rounds"]
    n_events = 0

    def one_run() -> None:
        nonlocal n_events
        sim = Simulator()
        _scale_workload(sim, ranks, rounds)
        sim.run()
        n_events = sim.event_count  # the same on every run

    t = _time_median(one_run, reps)
    return {"run_s": _r(t), "events_per_s": _r(n_events / t, 0),
            "n_events": float(n_events),
            "peak_heap_bytes": _peak_heap(one_run)}


def _run_e2e(params: dict, reps: int) -> dict:
    from repro.analysis import bench
    from repro.compression.cache import GLOBAL_CODEC_CACHE

    def one_run() -> None:
        # The codec cache would turn every repeat into pure hits; clear
        # it so each rep measures the same cold-cache work.
        GLOBAL_CODEC_CACHE.clear()
        bench.collect(quick=True, label="hostperf", only=params.get("only"),
                      scale=params.get("scale", False))

    t = _time_median(one_run, max(1, reps // 3))
    return {"run_s": _r(t)}


def _run_msg(params: dict, reps: int) -> dict:
    """Scheduler events per message of a traced ring allgather — exact,
    so one run, whatever ``reps`` says."""
    from repro.mpi.cluster import Cluster

    def rank_fn(comm):
        block = np.full(params["nbytes"] // 4, comm.rank, dtype=np.float32)
        yield from comm.allgather(block)

    res = Cluster(params["machine"], nodes=params["nodes"],
                  gpus_per_node=params["ppn"]).run(rank_fn)
    n_events = res.tracer.event_count
    n_messages = res.tracer.metrics.counter_total("mpi.sends")
    return {"events_per_message": _r(n_events / n_messages),
            "n_events": float(n_events), "n_messages": float(n_messages)}


def _sppm_blocks(n: int, nbytes: int, salt: int) -> list:
    """``n`` distinct ``msg_sppm`` payloads (one per rank)."""
    from repro.omb.payload import make_payload

    return [make_payload("dataset:msg_sppm", nbytes, seed=salt + r)
            for r in range(n)]


def _run_coll_relay(params: dict, reps: int) -> dict:
    """The three keep-compressed collectives perfbench's
    ``coll-relay-16`` times, as one untraced run."""
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.core.config import CompressionConfig
    from repro.mpi.cluster import Cluster

    n = params["nodes"] * params["ppn"]
    gather = _sppm_blocks(n, params["gather_nbytes"], 0)
    reduce = _sppm_blocks(n, params["reduce_nbytes"], 100)
    bcast = _sppm_blocks(1, params["bcast_nbytes"], 200)[0]
    cluster = Cluster(params["machine"], nodes=params["nodes"],
                      gpus_per_node=params["ppn"])
    config = CompressionConfig.mpc_opt()

    def rank_fn(comm):
        yield from comm.allgather(gather[comm.rank])
        yield from comm.allreduce(reduce[comm.rank], algorithm="ring")
        yield from comm.bcast(bcast if comm.rank == 0 else None, root=0)

    def one_run() -> None:
        GLOBAL_CODEC_CACHE.clear()  # every rep does the same cold-cache work
        cluster.run(rank_fn, config=config, trace=False)

    return {"run_s": _r(_time_median(one_run, max(1, reps // 3)))}


def _run_codec_stream(params: dict, reps: int) -> dict:
    """The point-to-point stream perfbench's ``codec-stream`` times, as
    one untraced run per Fig 9 configuration."""
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.core.config import CompressionConfig
    from repro.mpi.cluster import Cluster
    from repro.omb.payload import make_payload

    payloads = [make_payload("wave", nbytes, seed=i)
                for i, nbytes in enumerate(params["sizes"])]
    cluster = Cluster(params["machine"], nodes=params["nodes"],
                      gpus_per_node=params["ppn"])
    zfp8 = CompressionConfig.zfp_opt(8)
    configs = [CompressionConfig.mpc_opt(), zfp8,
               zfp8.with_(pipeline=True, partitions=8)]

    def rank_fn(comm):
        for i, data in enumerate(payloads):
            if comm.rank == 0:
                yield from comm.send(data, 1, tag=10 + i)
                yield from comm.recv(1, tag=50 + i)
            else:
                got = yield from comm.recv(0, tag=10 + i)
                yield from comm.send(got[:1], 0, tag=50 + i)

    def one_run() -> None:
        for config in configs:
            # zfp8 and zfp8-pipe share a codec: start each config cold
            GLOBAL_CODEC_CACHE.clear()
            cluster.run(rank_fn, config=config, trace=False)

    return {"run_s": _r(_time_median(one_run, max(1, reps // 3)))}


def _run_coll_decodes(params: dict, reps: int) -> dict:
    """Real decode executions per message of a traced ring allreduce —
    exact, so one run, whatever ``reps`` says."""
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.core.config import CompressionConfig
    from repro.mpi.cluster import Cluster

    n = params["nodes"] * params["ppn"]
    blocks = _sppm_blocks(n, params["nbytes"], 0)

    def rank_fn(comm):
        yield from comm.allreduce(blocks[comm.rank], algorithm="ring")

    GLOBAL_CODEC_CACHE.clear()
    res = Cluster(params["machine"], nodes=params["nodes"],
                  gpus_per_node=params["ppn"]).run(
        rank_fn, config=CompressionConfig.mpc_opt())
    n_decodes = GLOBAL_CODEC_CACHE.stats()["decompress_execs"]
    n_messages = res.tracer.metrics.counter_total("mpi.sends")
    return {"codec_decodes_per_message": _r(n_decodes / n_messages),
            "n_decodes": float(n_decodes), "n_messages": float(n_messages)}


_RUNNERS = {"codec": _run_codec, "engine": _run_engine,
            "engine-scale": _run_engine_scale, "e2e": _run_e2e,
            "msg": _run_msg, "coll-relay": _run_coll_relay,
            "coll-decodes": _run_coll_decodes,
            "codec-stream": _run_codec_stream}


def collect(quick: bool = True, label: str = "local", reps: int = 5,
            only: Optional[str] = None,
            progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the matrix and build a snapshot document."""
    doc = {"schema_version": SCHEMA_VERSION, "label": label,
           "mode": "quick" if quick else "full", "reps": int(reps),
           "benchmarks": {}}
    for mb in benchmark_matrix(quick):
        if only and only not in mb.name:
            continue
        if progress:
            progress(mb.name)
        metrics = _RUNNERS[mb.kind](mb.params, reps)
        doc["benchmarks"][mb.name] = {
            "kind": mb.kind,
            "params": {k: v for k, v in mb.params.items()
                       if k != "codec_params"} | (
                {"codec_params": mb.params["codec_params"]}
                if "codec_params" in mb.params else {}),
            "metrics": metrics,
        }
    return doc


# -- serialization -----------------------------------------------------------

def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write(doc: dict, path) -> None:
    """Write a snapshot — canonical JSON, or a binary RPRT container
    when ``path`` ends in ``.rprt``."""
    if str(path).lower().endswith(".rprt"):
        from repro.analysis.rprt import write_snapshot_rprt

        write_snapshot_rprt(doc, path, kind="hostperf")
        return
    with open(path, "w") as fh:
        fh.write(dumps(doc))


def load(path) -> dict:
    from repro.analysis.rprt import is_rprt, read_snapshot_rprt

    if is_rprt(path):
        doc = read_snapshot_rprt(path)
    else:
        with open(path) as fh:
            doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    return doc


# -- comparison --------------------------------------------------------------

#: metrics with this suffix are counts the simulator reproduces exactly;
#: they gate at zero tolerance instead of the timing threshold
_EXACT_SUFFIX = "_per_message"


#: metrics compared by :func:`compare`; others (ratio, raw seconds of
#: the codec benches — redundant with the rates) are informational.
def _direction(metric: str) -> Optional[int]:
    """+1: bigger is worse (times, memory, cost ratios, counts); -1:
    smaller is worse (rates); None: not compared."""
    if metric.endswith("_per_s"):
        return -1
    if metric.endswith(("_s", "_bytes", "_ratio", _EXACT_SUFFIX)):
        return +1
    return None


@dataclass(frozen=True)
class PerfDrift:
    """One metric that regressed (or improved) past the threshold."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    rel: float  # signed: positive == regression
    regression: bool

    def describe(self) -> str:
        tag = "REGRESSION" if self.regression else "improvement"
        return (f"[{tag}] {self.benchmark}: {self.metric} "
                f"{self.baseline:g} -> {self.current:g} ({self.rel:+.1%})")


@dataclass
class PerfComparison:
    """Outcome of :func:`compare`."""

    threshold: float
    drifts: list[PerfDrift] = field(default_factory=list)
    checked: int = 0

    @property
    def regressions(self) -> list[PerfDrift]:
        return [d for d in self.drifts if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def report(self) -> str:
        lines = [
            f"compared {self.checked} host-perf metrics at "
            f"±{self.threshold:.0%}: "
            + ("OK" if self.ok else f"{len(self.regressions)} regression(s)")
        ]
        lines += [f"  {d.describe()}" for d in self.drifts]
        return "\n".join(lines)


def compare(current: dict, baseline: dict,
            threshold: float = 0.30) -> PerfComparison:
    """Diff two snapshots with a relative threshold.

    A *regression* is a time metric that grew, or a rate metric that
    shrank, by more than ``threshold`` relative to the baseline.
    Symmetric improvements are reported (so speedups are visible in CI
    logs) but never gate.  Benchmarks present in only one snapshot are
    skipped — the matrix is allowed to grow.
    """
    cmp = PerfComparison(threshold=threshold)
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        cur = current.get("benchmarks", {}).get(name)
        if cur is None:
            continue
        for metric, bval in sorted(base.get("metrics", {}).items()):
            direction = _direction(metric)
            cval = cur.get("metrics", {}).get(metric)
            if direction is None or cval is None or not bval:
                continue
            cmp.checked += 1
            rel = direction * (float(cval) - float(bval)) / abs(float(bval))
            limit = 0.0 if metric.endswith(_EXACT_SUFFIX) else threshold
            if abs(rel) > limit:
                cmp.drifts.append(PerfDrift(
                    benchmark=name, metric=metric, baseline=float(bval),
                    current=float(cval), rel=rel, regression=rel > 0))
    return cmp


# -- selftest ---------------------------------------------------------------

def _synthetic_snapshot() -> dict:
    """A tiny fixed snapshot (no timing involved) for the selftest."""
    return {
        "schema_version": SCHEMA_VERSION, "label": "selftest",
        "mode": "quick", "reps": 1,
        "benchmarks": {
            "codec/x/smooth/256K": {"kind": "codec", "params": {},
                                    "metrics": {"encode_s": 0.010,
                                                "encode_mb_per_s": 100.0}},
            "engine/events": {"kind": "engine", "params": {},
                              "metrics": {"run_s": 0.050,
                                          "events_per_s": 200000.0,
                                          "peak_heap_bytes": 1 << 20}},
            "engine/spans": {"kind": "engine", "params": {},
                             "metrics": {"run_s": 0.450,
                                         "trace_cost_ratio": 9.0}},
        },
    }


def selftest(threshold: float = 0.30) -> list[str]:
    """Prove the comparison machinery catches an injected regression.

    Mirrors ``repro check --selftest``: returns a list of failure
    descriptions (empty == the harness works).  Checks that (1) a clean
    self-comparison passes, (2) an injected slowdown on a time metric
    gates, (3) an injected throughput drop gates, as do a memory bloat
    and a grown ``trace_cost_ratio``, and (4) a symmetric *improvement*
    is reported but does not gate.
    """
    failures = []
    base = _synthetic_snapshot()

    clean = compare(_synthetic_snapshot(), base, threshold)
    if not clean.ok or clean.checked == 0:
        failures.append("clean self-comparison did not pass")

    slow = _synthetic_snapshot()
    slow["benchmarks"]["codec/x/smooth/256K"]["metrics"]["encode_s"] *= (
        1.0 + 2 * threshold)
    c = compare(slow, base, threshold)
    if c.ok:
        failures.append("injected time regression was not flagged")

    drop = _synthetic_snapshot()
    drop["benchmarks"]["engine/events"]["metrics"]["events_per_s"] *= (
        1.0 - 2 * threshold)
    c = compare(drop, base, threshold)
    if c.ok:
        failures.append("injected throughput regression was not flagged")

    bloat = _synthetic_snapshot()
    bloat["benchmarks"]["engine/events"]["metrics"]["peak_heap_bytes"] *= (
        1.0 + 2 * threshold)
    c = compare(bloat, base, threshold)
    if c.ok:
        failures.append("injected memory regression was not flagged")

    costly = _synthetic_snapshot()
    costly["benchmarks"]["engine/spans"]["metrics"]["trace_cost_ratio"] *= (
        1.0 + 2 * threshold)
    c = compare(costly, base, threshold)
    if c.ok:
        failures.append("injected tracing-cost regression was not flagged")

    fast = _synthetic_snapshot()
    fast["benchmarks"]["codec/x/smooth/256K"]["metrics"]["encode_s"] /= 4.0
    c = compare(fast, base, threshold)
    if not c.ok:
        failures.append("an improvement incorrectly gated")
    elif not c.drifts:
        failures.append("an improvement was not reported")
    return failures
