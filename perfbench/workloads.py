"""The four workloads: seeded inputs, rank programs, verification.

Each workload drives the simulator through its public surface only
(``Cluster.run`` with the rank programs below, ``CompressionConfig``
presets, ``make_payload``, the trace exporters/analysers) and checks
every delivered payload.  Why each exists, and which layer it loads,
is recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.

A workload object is built once per interpreter (that is the set-up
the ``setup_s`` metric times) and then run many times:

    wl = WORKLOADS[name](seed)      # inputs + cluster        (set-up)
    warm = wl.run()                 # one repetition           (timed)
    wl.keep_from_warmup(warm)       # what later repetitions must reproduce
    del warm
    wl.prepare_references()         # reference results, untimed, once
    failed = wl.check(wl.run())     # verification, untimed, every repetition

``shrink`` > 1 divides the problem size for ``run.py --selftest``;
metric names keep the labels of the full-size configuration.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from time import process_time

import numpy as np

from repro.analysis import CommProfile, CritPathAnalyzer, write_trace_rprt
from repro.analysis.traceio import load_trace_records
from repro.check.sanitize import TraceSanitizer
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core.config import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

#: lossy configs must stay within this share of max|x| per element
LOSSY_BOUND = 0.05
#: simulated times must repeat to this relative tolerance
SIM_RTOL = 1e-9


def derive_seed(seed: int, *path: int) -> int:
    """A payload seed derived from the benchmark seed and a fixed path
    (workload index, rank/size index): same ``--seed``, same inputs."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def same_sim_time(a: float, b: float) -> bool:
    return abs(a - b) <= SIM_RTOL * max(abs(a), abs(b))


def _same_bits(got, want: np.ndarray) -> bool:
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape
            and np.array_equal(got.view(np.uint8), want.view(np.uint8)))


@dataclass
class Output:
    """What one repetition produced."""

    #: simulated time of the measured operations, microseconds
    sim_latency_us: float
    #: delivered data, in the workload's own fixed layout
    values: object
    #: the ``ClusterResult`` of every ``Cluster.run`` (traced counters)
    results: list = field(default_factory=list)
    #: named simulated sub-times (per config/size or per collective)
    sim_parts_us: dict = field(default_factory=dict)
    #: host CPU seconds per stage, for workloads that have stages
    stage_cpu_s: dict = field(default_factory=dict)


class Workload:
    """Base: the repetition contract and the sim-time repeat check."""

    name = ""
    #: point-to-point messages one repetition delivers (exact)
    messages = 0
    #: payload bytes those messages deliver
    payload_bytes = 0
    #: verified operations per repetition
    ops = 0

    def simulate(self, trace: bool) -> Output:
        """The workload's ``Cluster.run`` calls, traced or not."""
        raise NotImplementedError

    def run(self) -> Output:
        """One repetition as the end-to-end metrics time it."""
        return self.simulate(trace=False)

    def keep_from_warmup(self, warm: Output) -> None:
        """Keep what every later repetition must reproduce: the warm-up
        repetition's simulated time (and, where lossy, its outputs)."""
        self._sim_expected = warm.sim_latency_us

    def prepare_references(self) -> None:
        """Compute reference results (untimed, once).  Called after the
        warm-up's output is released, so that the reference run does
        not stand beside it in the interpreter's peak RSS."""

    def check(self, out: Output) -> int:
        """Failed operations of one repetition (0..``ops``)."""
        if not same_sim_time(out.sim_latency_us, self._sim_expected):
            return self.ops  # a run whose simulated time drifted is wrong as a whole
        return min(self.ops, self._check_values(out))

    def _check_values(self, out: Output) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds outside the interpreter."""


# -- msgstorm-128 -------------------------------------------------------------

def _allgather_rank(comm, blocks):
    t0 = comm.now
    out = yield from comm.allgather(blocks[comm.rank])
    return comm.now - t0, out


def _check_allgather(gathered, expected: np.ndarray) -> list:
    """Per rank, the failed deliveries of an allgather: rank r's slot i
    must hold rank i's block bit for bit (its own slot is not a
    delivery).  ``expected`` is the stacked byte image of the blocks."""
    failed = []
    for rank, got in enumerate(gathered):
        try:
            same = (np.stack(got).view(np.uint8) == expected).all(axis=1)
        except (ValueError, TypeError):  # a slot of the wrong shape or type
            failed.append(len(expected) - 1)
            continue
        same[rank] = True
        failed.append(int(len(same) - same.sum()))
    return failed


class _SmallAllgather(Workload):
    """4 KiB blocks, no compression, ring allgather on ``fat-tree``.
    Subclasses give ``_index`` (seed path), ``_shape`` and
    ``_small_shape`` (nodes, GPUs per node)."""

    #: what runs after the allgather, one verified operation each
    stages = ()

    def __init__(self, seed: int, shrink: int = 1):
        nodes, ppn = self._shape if shrink == 1 else self._small_shape
        self.cluster = Cluster("fat-tree", nodes=nodes, gpus_per_node=ppn)
        self.n = n = nodes * ppn
        # distinct random blocks: under disabled() the content costs
        # nothing, and a misrouted block cannot pass the check
        self.blocks = [make_payload("random", 4 * KiB,
                                    derive_seed(seed, self._index, r))
                       for r in range(n)]
        self._expected = np.stack(self.blocks).view(np.uint8)
        self.config = CompressionConfig.disabled()
        self.messages = n * (n - 1)
        self.ops = self.messages + len(self.stages)
        self.payload_bytes = self.messages * 4 * KiB

    def simulate(self, trace: bool) -> Output:
        res = self.cluster.run(_allgather_rank, config=self.config,
                               args=(self.blocks,), trace=trace)
        return Output(max(t for t, _ in res.values) * 1e6,
                      [got for _, got in res.values], [res])


class MsgStorm(_SmallAllgather):
    """Many ranks, small uncompressed messages: host time is
    per-message Python in sim/mpi/network."""

    name = "msgstorm-128"
    _index = 0
    _shape = (32, 4)        # two 16-node groups, so spine routes are used
    _small_shape = (8, 2)

    def _check_values(self, out: Output) -> int:
        return sum(_check_allgather(out.values, self._expected))


# -- codec-stream -------------------------------------------------------------

def _stream_rank(comm, payloads):
    """Rank 0 streams the payloads to rank 1, a 1-element ack each;
    returns the round-trip times (rank 0) / the received data (rank 1)."""
    if comm.rank == 0:
        times, acks = [], []
        for i, data in enumerate(payloads):
            t0 = comm.now
            yield from comm.send(data, 1, tag=10 + i)
            acks.append((yield from comm.recv(1, tag=50 + i)))
            times.append(comm.now - t0)
        return times, acks
    got = []
    for i in range(len(payloads)):
        data = yield from comm.recv(0, tag=10 + i)
        got.append(data)
        yield from comm.send(data[:1], 0, tag=50 + i)
    return None, got


def stream_configs() -> dict:
    """The Fig 9 configurations, under the names ``repro bench`` uses."""
    zfp8 = CompressionConfig.zfp_opt(8)
    return {
        "baseline": CompressionConfig.disabled(),
        "mpc-opt": CompressionConfig.mpc_opt(),
        "zfp8": zfp8,
        "zfp8-pipe": zfp8.with_(pipeline=True, partitions=8),
    }


class CodecStream(Workload):
    """Distinct large payloads, point to point, once per codec config:
    host time is compression kernels plus core partitioning/CRC."""

    name = "codec-stream"
    _index = 1
    sizes = {"256K": 256 * KiB, "1M": MiB, "4M": 4 * MiB, "16M": 16 * MiB}
    lossless = ("baseline", "mpc-opt")

    def __init__(self, seed: int, shrink: int = 1):
        self.cluster = Cluster("longhorn", nodes=2, gpus_per_node=1)
        self.payloads = {
            label: make_payload("wave", n // shrink,
                                derive_seed(seed, self._index, i))
            for i, (label, n) in enumerate(self.sizes.items())}
        self.configs = stream_configs()
        per_config = 2 * len(self.payloads)  # payload + ack
        self.messages = self.ops = per_config * len(self.configs)
        self.payload_bytes = len(self.configs) * sum(
            p.nbytes + p.itemsize for p in self.payloads.values())

    def simulate(self, trace: bool) -> Output:
        values, results, parts = {}, [], {}
        payloads = list(self.payloads.values())
        for cfg_name, cfg in self.configs.items():
            # zfp8 and zfp8-pipe share a codec: start each config cold,
            # so no message is served from an earlier one
            GLOBAL_CODEC_CACHE.clear()
            res = self.cluster.run(_stream_rank, config=cfg,
                                   args=(payloads,), trace=trace)
            (times, acks), (_, got) = res.values
            values[cfg_name] = (got, acks)
            results.append(res)
            for label, t in zip(self.payloads, times):
                parts[f"{cfg_name}.{label}"] = t * 1e6
        # the uncompressed reference runs are left out of the sum, so
        # a compression or protocol gain shows in it
        total = sum(t for key, t in parts.items()
                    if not key.startswith("baseline."))
        return Output(total, values, results, sim_parts_us=parts)

    def keep_from_warmup(self, warm: Output) -> None:
        super().keep_from_warmup(warm)
        self._lossy_expected = {
            cfg: [a.copy() for a in got]
            for cfg, (got, _) in warm.values.items() if cfg not in self.lossless}

    def _check_values(self, out: Output) -> int:
        failed = 0
        for cfg_name, (got, acks) in out.values.items():
            for i, sent in enumerate(self.payloads.values()):
                ok = _same_bits(got[i], sent)
                if cfg_name not in self.lossless:
                    ok = (_same_bits(got[i], self._lossy_expected[cfg_name][i])
                          and float(np.abs(got[i] - sent).max())
                          <= LOSSY_BOUND * float(np.abs(sent).max()))
                failed += not ok
                failed += not (isinstance(got[i], np.ndarray)
                               and _same_bits(acks[i], got[i][:1]))
        return failed


# -- coll-relay-16 ------------------------------------------------------------

COLLECTIVES = ("allgather", "allreduce", "bcast")


def _relay_rank(comm, gather_blocks, reduce_blocks, bcast_data):
    times, outs = {}, {}
    for op in COLLECTIVES:
        yield from comm.barrier()
        t0 = comm.now
        if op == "allgather":
            outs[op] = yield from comm.allgather(gather_blocks[comm.rank])
        elif op == "allreduce":
            outs[op] = yield from comm.allreduce(reduce_blocks[comm.rank],
                                                 algorithm="ring")
        else:
            outs[op] = yield from comm.bcast(
                bcast_data if comm.rank == 0 else None, root=0)
        times[op] = comm.now - t0
    return times, outs


class CollRelay(Workload):
    """Keep-compressed collectives: each buffer is relayed over many
    hops, so the codec cache, CRC relay checks, copies and
    compressed-domain reduction carry most of the host time."""

    name = "coll-relay-16"
    _index = 2

    def __init__(self, seed: int, shrink: int = 1):
        nodes, ppn = (8, 2) if shrink == 1 else (2, 2)
        self.cluster = Cluster("frontera-liquid", nodes=nodes, gpus_per_node=ppn)
        n = self.n = nodes * ppn
        kind = "dataset:msg_sppm"
        self.gather_blocks = [
            make_payload(kind, 512 * KiB // shrink, derive_seed(seed, self._index, 0, r))
            for r in range(n)]
        self.reduce_blocks = [
            make_payload(kind, 2 * MiB // shrink, derive_seed(seed, self._index, 1, r))
            for r in range(n)]
        self.bcast_data = make_payload(kind, 2 * MiB // shrink,
                                       derive_seed(seed, self._index, 2))
        self.config = CompressionConfig.mpc_opt()
        barrier = n * (n - 1).bit_length()  # dissemination: log2 rounds
        per_op = {"allgather": n * (n - 1), "allreduce": 2 * n * (n - 1),
                  "bcast": n - 1}
        self.messages = sum(per_op.values()) + len(COLLECTIVES) * barrier
        self.ops = n * len(COLLECTIVES)
        self.payload_bytes = (
            per_op["allgather"] * self.gather_blocks[0].nbytes
            + per_op["allreduce"] * self.reduce_blocks[0].nbytes // n
            + per_op["bcast"] * self.bcast_data.nbytes
            + len(COLLECTIVES) * barrier)

    def _simulate(self, config, trace: bool) -> Output:
        res = self.cluster.run(
            _relay_rank, config=config, trace=trace,
            args=(self.gather_blocks, self.reduce_blocks, self.bcast_data))
        parts = {op: max(t[op] for t, _ in res.values) * 1e6
                 for op in COLLECTIVES}
        return Output(sum(parts.values()), [outs for _, outs in res.values],
                      [res], sim_parts_us=parts)

    def simulate(self, trace: bool) -> Output:
        return self._simulate(self.config, trace)

    def prepare_references(self) -> None:
        ref = self._simulate(CompressionConfig.disabled(), trace=False)
        self.reference_parts_us = ref.sim_parts_us
        self._gather_expected = np.stack(self.gather_blocks).view(np.uint8)
        self._expected = {op: ref.values[0][op] for op in ("allreduce", "bcast")}

    def _check_values(self, out: Output) -> int:
        # one operation per rank per collective
        failed = sum(bad > 0 for bad in _check_allgather(
            [outs["allgather"] for outs in out.values], self._gather_expected))
        for outs in out.values:
            for op, want in self._expected.items():
                failed += not _same_bits(outs[op], want)
        return failed


# -- trace-pipeline -----------------------------------------------------------

class TracePipeline(_SmallAllgather):
    """The instrumented loop and everything downstream of it: span
    recording, RPRT export, streamed ingestion, sanitizer, critical
    path, communication profile."""

    name = "trace-pipeline"
    _index = 3
    _shape = (16, 4)
    _small_shape = (4, 2)
    stages = ("traced_run", "write_rprt", "sanitize", "critpath", "profile")

    def __init__(self, seed: int, shrink: int = 1):
        super().__init__(seed, shrink)
        # the checkout is the only place the benchmark may write
        self.tmp_dir = os.path.join(".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp_dir, exist_ok=True)
        self.trace_path = os.path.join(self.tmp_dir, "trace.rprt")

    def run(self) -> Output:
        cpu, last = {}, process_time()

        def lap(stage):
            nonlocal last
            now = process_time()
            cpu[stage], last = now - last, now

        out = self.simulate(trace=True)
        res = out.results[0]
        lap("traced_run")
        rprt = write_trace_rprt(res.tracer, self.trace_path, elapsed=res.elapsed)
        lap("write_rprt")
        violations = TraceSanitizer.from_trace_file(self.trace_path).check_all()
        lap("sanitize")
        analyzer = CritPathAnalyzer(load_trace_records(self.trace_path))
        paths = analyzer.collectives()
        attribution = analyzer.aggregate_attribution()
        lap("critpath")
        profile = CommProfile.from_trace_file(self.trace_path).as_dict()
        lap("profile")
        out.stage_cpu_s = cpu
        out.values = (out.values, {
            "spans": len(res.tracer.records), "rprt": rprt,
            "violations": violations, "paths": paths,
            "attribution": attribution, "profile": profile})
        return out

    def keep_from_warmup(self, warm: Output) -> None:
        self._spans_expected = warm.values[1]["spans"]

    def prepare_references(self) -> None:
        # tracing must not move simulated time: the expected value is
        # the uninstrumented run's
        self._sim_expected = self.simulate(trace=False).sim_latency_us

    def _check_values(self, out: Output) -> int:
        gathered, a = out.values
        slowest = max((p.latency for p in a["paths"]), default=0.0) * 1e6
        stage_ok = {
            "traced_run": a["spans"] == self._spans_expected,
            "write_rprt": os.path.getsize(self.trace_path) == a["rprt"]["file_bytes"],
            "sanitize": not a["violations"],
            # the exporter keeps microseconds, so the slowest rank's
            # collective span reproduces the simulated time to rounding
            "critpath": (len(a["paths"]) == self.n and len(a["attribution"]) == 4
                         and abs(slowest - out.sim_latency_us) < 1e-6 * slowest),
            "profile": a["profile"].get("n_messages") == self.messages,
        }
        return (sum(_check_allgather(gathered, self._expected))
                + sum(not ok for ok in stage_ok.values()))

    def close(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp_dir))
        except OSError:
            pass  # another run still keeps its directory there


WORKLOADS = {w.name: w for w in (MsgStorm, CodecStream, CollRelay, TracePipeline)}
