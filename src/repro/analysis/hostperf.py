"""Host-performance regression harness: microbench matrix, schema-
versioned ``HOSTPERF_*.json`` snapshots, and relative-threshold gating.

This is the *wall-clock* counterpart of :mod:`repro.analysis.bench`:
``bench`` gates **simulated** results with zero tolerance (the
simulation is deterministic), while ``hostperf`` tracks how fast the
*host* executes the hot paths — codec kernels, the event loop, span
bookkeeping, and the end-to-end ``bench --quick`` run.  Host timing is
inherently noisy, so comparisons use median-of-k timing and a
**relative** threshold instead of byte identity, and CI runs the
comparison in advisory mode.

Every benchmark exercises real code on deterministic data: codec
kernels (``codec/*``), the bare and the traced event loop (``engine/*``,
whose ``peak_heap_bytes`` is a tracemalloc peak taken in its own untimed
pass), whole runs a developer waits on (``e2e/*``) and three deterministic
counts (``msg/events_per_message`` and ``msg/rndv_events_per_message``,
the eager and the rendezvous path, and ``coll/codec_decodes_per_message``).
docs/performance.md, "The hostperf harness", says what each entry of
:func:`benchmark_matrix` times and why; the runners below say how.

Each benchmark carries one ``metrics`` section whose names carry their
gate (:func:`policy`): ``*_s`` / ``*_bytes`` costs and ``*_per_s`` rates
are host timings, ``*_ratio`` a machine-independent cost ratio,
``*_per_message`` an exact count.  Serialisation, loading and
comparison are :mod:`repro.analysis.snapshot`'s; docs/performance.md,
"Snapshots and gates", has the rules.

Wall-clock reads below are pragma'd for the determinism linter: this
module *is* the sanctioned wall-clock consumer — its measurements never
feed simulated results, only advisory host-speed tracking.
"""

from __future__ import annotations

import time
import zlib
from statistics import median
from typing import Callable, Optional

import numpy as np

from repro.analysis import snapshot
from repro.analysis.snapshot import (ADVISORY, DRIFT, EXACT, IMPROVEMENT,
                                     RATIO, THRESHOLD, TIMING, Entry, Gate,
                                     rounded as _r)
from repro.utils.units import KiB, MiB

__all__ = ["benchmark_matrix", "collect", "policy", "selftest"]

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
#: ``msg_sppm``: long runs of one value, so most of MPC's w-word blocks
#: hold no residual — the property its kernels' time depends on and
#: neither dataset above has (both leave every block live).
MPC_DATASETS = DATASETS + ("runs",)
QUICK_SIZES = (256 * KiB, 2 * MiB)
FULL_SIZES = (256 * KiB, 2 * MiB, 16 * MiB)


def benchmark_matrix(quick: bool = True) -> list[Entry]:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    out = [
        Entry(f"codec/{cname}/{ds}/{nbytes // KiB}K", "codec",
              {"codec": codec, "codec_params": params, "dtype": dtype,
               "dataset": ds, "nbytes": nbytes})
        for (cname, codec, params, dtype) in CODEC_CONFIGS
        for ds in (MPC_DATASETS if codec == "mpc" else DATASETS)
        for nbytes in sizes
    ]
    scale = 1 if quick else 4
    out.append(Entry("engine/events", "engine",
                     {"procs": 100 * scale, "steps": 60, "traced": False}))
    out.append(Entry("engine/spans", "engine",
                     {"procs": 100 * scale, "steps": 60, "traced": True}))
    out.append(Entry("engine/scale/256", "engine-scale",
                     {"ranks": 256, "rounds": 16}))
    out.append(Entry("engine/scale/1024", "engine-scale",
                     {"ranks": 1024, "rounds": 8}))
    out.append(Entry("e2e/bench-quick", "e2e", {"only": None}))
    out.append(Entry("e2e/scale-allgather-64", "e2e",
                     {"only": "scale/allgather-64", "scale": True}))
    out.append(Entry("e2e/scale-allgather-256", "e2e",
                     {"machine": "fat-tree", "nodes": 64, "ppn": 4,
                      "nbytes": 4096}))
    out.append(Entry("msg/events_per_message", "msg",
                     {"machine": "fat-tree", "nodes": 16, "ppn": 4,
                      "nbytes": 4096}))
    out.append(Entry("msg/rndv_events_per_message", "msg",
                     {"machine": "fat-tree", "nodes": 16, "ppn": 4,
                      "nbytes": 64 * KiB}))
    out.append(Entry("e2e/coll-relay-16", "coll-relay",
                     {"machine": "frontera-liquid", "nodes": 8, "ppn": 2,
                      "gather_nbytes": 512 * KiB,
                      "reduce_nbytes": 2 * MiB, "bcast_nbytes": 2 * MiB}))
    out.append(Entry("e2e/codec-stream", "codec-stream",
                     {"machine": "longhorn", "nodes": 2, "ppn": 1,
                      "sizes": [256 * KiB, MiB, 4 * MiB, 16 * MiB]}))
    out.append(Entry("coll/codec_decodes_per_message", "coll-decodes",
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
    elif dataset == "runs":
        from repro.omb.payload import make_payload

        data = make_payload("dataset:msg_sppm", n * 4, seed).astype(dtype)
    else:
        data = (rng.standard_normal(n) * 1e4).astype(dtype)
    if codec == "zfp2d":
        cols = 256
        return data[: (n // cols) * cols].reshape(-1, cols)
    return data


# -- timing core -------------------------------------------------------------

def _timed(fn: Callable[[], None]) -> float:
    """Wall seconds of one ``fn()`` run."""
    t0 = time.perf_counter()  # repro: allow-RPR001 — host-perf timing is the measured quantity here, never a simulated result
    fn()
    return time.perf_counter() - t0  # repro: allow-RPR001 — see above


def _time_median(fn: Callable[[], None], reps: int) -> float:
    """Median wall seconds of ``reps`` runs (after one warmup)."""
    fn()  # warmup: page in, JIT numpy ufunc caches
    return median(_timed(fn) for _ in range(reps))


def _run_codec(params: dict, reps: int) -> dict:
    from repro.compression import get_compressor

    data = _make_data(params["dataset"], params["nbytes"], params["dtype"],
                      params["codec"])
    codec = get_compressor(params["codec"], **params["codec_params"])
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
    from repro.sim import Simulator, Tracer, trace_scope

    procs, steps, traced = params["procs"], params["steps"], params["traced"]

    def one_run(traced: bool = traced) -> None:
        sim = Simulator()
        tracer = Tracer(sim) if traced else None

        def worker(sim):
            for i in range(steps):
                if tracer is not None:
                    with trace_scope(sim, "hostperf", "step", rank=0):
                        yield sim.timeout(1e-6)
                    tracer.span(sim.now, sim.now, "hostperf", "leaf", rank=0)
                else:
                    yield sim.timeout(1e-6)

        for _ in range(procs):
            sim.process(worker(sim))
        sim.run()

    if traced:
        # Traced and untraced runs alternate in back-to-back pairs, and
        # the ratio is the median of the per-pair quotients: background
        # load then lands on both sides of a quotient, not on one batch.
        one_run()
        one_run(False)
        pairs = [(_timed(one_run), _timed(lambda: one_run(False)))
                 for _ in range(reps)]
        t = median(a for a, _ in pairs)
    else:
        t = _time_median(one_run, reps)
    n_events = procs * (steps + 1)  # one init event + one per timeout
    out = {"run_s": _r(t), "events_per_s": _r(n_events / t, 0),
           "peak_heap_bytes": _peak_heap(one_run)}
    if traced:
        out["trace_cost_ratio"] = _r(median(a / b for a, b in pairs), 3)
    return out


def _scale_workload(sim, ranks: int, rounds: int) -> None:
    """Spawn the collective-shaped storm the ``engine/scale`` points
    time: every rank runs ``rounds`` lockstep iterations of spawn a
    worker, join it with a same-instant timeout (AllOf), then block on
    a shared per-round gate a coordinator fires — i.e. same-timestamp
    batches, spawn churn and wide fan-in dispatch."""

    def worker(sim):
        yield sim.timeout(1e-6)

    def rank_proc(sim, gates):
        for gate in gates:
            w = sim.process(worker(sim))
            yield sim.all_of([w, sim.timeout(1e-6)])
            yield gate

    def coordinator(sim, gates):
        for gate in gates:
            yield sim.timeout(3e-6)
            gate.succeed()

    gates = [sim.event() for _ in range(rounds)]
    for _ in range(ranks):
        sim.process(rank_proc(sim, gates))
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
    """A ``bench`` run (``only``), or one untraced, warm-up-free
    allgather of a ``scale_matrix`` shape (``nodes``)."""
    from repro.analysis import bench
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.omb.collective import osu_allgather

    def one_run() -> None:
        # The codec cache would turn every repeat into pure hits; clear
        # it so each rep measures the same cold-cache work.
        GLOBAL_CODEC_CACHE.clear()
        if "nodes" in params:
            osu_allgather(params["machine"], params["nodes"], params["ppn"],
                          params["nbytes"], warmup=0, trace=False)
        else:
            bench.collect(quick=True, label="hostperf",
                          only=params.get("only"),
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
    return snapshot.collect(
        "hostperf", benchmark_matrix(quick),
        lambda mb: {"metrics": _RUNNERS[mb.kind](mb.params, reps)},
        only, progress, label=label, mode="quick" if quick else "full",
        reps=int(reps))


# -- gate policy ---------------------------------------------------------------

#: metric suffix -> gate, first match wins ("_per_s" before "_s": a
#: rate also ends in it).  Anything else — a codec's ``ratio``, raw
#: event counts — is informational.
_GATES = (
    ("_per_message", Gate(EXACT, worse=+1)),   # counts the simulator reproduces
    ("_ratio", Gate(RATIO, worse=+1)),         # two timings of one benchmark
    ("_per_s", Gate(TIMING, worse=-1)),        # rates
    ("_s", Gate(TIMING, worse=+1)),            # seconds
    ("_bytes", Gate(TIMING, worse=+1)),        # peak heap
)


def policy(entry: str, section: str, metric: str) -> Optional[Gate]:
    """The gate of a ``metrics`` value, by its suffix (:data:`_GATES`)."""
    if section != "metrics":
        return None
    return next((g for suffix, g in _GATES if metric.endswith(suffix)), None)


# -- selftest ------------------------------------------------------------------

_WORSE, _BETTER = 1.0 + 2 * THRESHOLD, 1.0 / (1.0 + 2 * THRESHOLD)

#: (metric, baseline, current, advisory run?, verdict the comparison
#: must reach: that of its one drift, or None for a clean pass)
_SELFTEST = (
    ("encode_s", 1.0, 1.0, False, None),
    ("encode_s", 1.0, 1.0 + THRESHOLD / 2, False, None),
    ("encode_s", 1.0, _WORSE, False, DRIFT),
    ("encode_mb_per_s", 1.0, _BETTER, False, DRIFT),
    ("peak_heap_bytes", 1.0, _WORSE, False, DRIFT),
    ("trace_cost_ratio", 1.0, _WORSE, False, DRIFT),
    ("events_per_message", 21 / 4, 22 / 4, False, DRIFT),
    ("encode_s", 1.0, _BETTER, False, IMPROVEMENT),
    # --advisory softens the host's timings, nothing else
    ("encode_s", 1.0, _WORSE, True, ADVISORY),
    ("events_per_s", 1.0, _BETTER, True, ADVISORY),
    ("trace_cost_ratio", 1.0, _WORSE, True, DRIFT),
    ("events_per_message", 21 / 4, 22 / 4, True, DRIFT),
)


def selftest() -> list[str]:
    """Prove the gate catches injected regressions: each :data:`_SELFTEST`
    row moves one metric of a synthetic snapshot (no timing involved)
    and names the verdict the shared comparator must reach.  Returns
    the rows that did not (empty == the harness works), mirroring
    ``repro check --selftest``."""
    def doc(metric, value):
        return {"benchmarks": {"b": {"metrics": {metric: value}}}}

    failures = []
    for metric, base, cur, advisory, expected in _SELFTEST:
        cmp = snapshot.compare(doc(metric, cur), doc(metric, base), policy,
                               advisory=advisory)
        got = [d.verdict for d in cmp.drifts]
        want = [expected] if expected else []
        if got != want or cmp.ok != (expected != DRIFT):
            failures.append(f"{metric} {base:.3g} -> {cur:.3g} "
                            f"(advisory={advisory}): expected {want}, "
                            f"got {got}, ok={cmp.ok}")
    return failures
