"""Per-layer metrics: where one repetition's host time and simulated
time go.  Layers are the packages of ``src/repro/``.

Three sources, none of them active while end-to-end metrics are timed:

1. host self time: one repetition under ``cProfile``, folded by package;
2. program counters: one repetition with ``trace=True``, read from the
   public ``ClusterResult`` (all exact);
3. direct calls on the workload's own inputs.

``BENCHMARK.json`` declares the names and units.  A workload reports
the metrics it measures and no others: a ratio with nothing beneath it
and a component the run never uses are left out, not reported as 0.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
from statistics import median
from time import process_time

import numpy as np

from repro.analysis.export import write_chrome_trace
from repro.check.hb import HBChecker
from repro.compression import get_compressor
from repro.compression.cache import GLOBAL_CODEC_CACHE

from workloads import COLLECTIVES

LAYERS = ("sim", "mpi", "core", "compression", "gpu", "network",
          "analysis", "check", "omb", "datasets", "utils")

#: simulated busy time per modelled component (tracer span categories)
SIM_CATEGORIES = ("compression_kernel", "decompression_kernel",
                  "reduction_kernel", "network", "data_copy", "pool", "combine")

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.join(os.path.dirname(_HERE), "src", "repro") + os.sep
#: the codec cache is folded on its own, then added to ``compression``:
#: lookups (CRC + byte compare) and kernels are different optimisations
_CACHE_FILE = os.path.join("compression", "cache.py")


def cold() -> None:
    """Every repetition starts from the same state: garbage collected,
    codec cache empty — so every repetition does identical work."""
    gc.collect()
    GLOBAL_CODEC_CACHE.clear()


def cpu_of(fn) -> tuple:
    """``(cpu_seconds, result)`` of one call."""
    t = process_time()
    result = fn()
    return process_time() - t, result


# -- 1. host self time ---------------------------------------------------------

def _owner(filename: str):
    """The layer that owns a profiled function's file, or None for
    code outside the repository (builtins, numpy, the stdlib)."""
    if filename.startswith(_REPRO):
        if filename.endswith(_CACHE_FILE):
            return "cache"
        pkg = filename[len(_REPRO):].split(os.sep, 1)
        # modules outside the listed packages (faults, errors) do no
        # work in these workloads; they fold into utils
        return pkg[0] if len(pkg) == 2 and pkg[0] in LAYERS else "utils"
    if filename.startswith(_HERE):
        return "perfbench"
    return None


def fold_profile(stats: pstats.Stats) -> tuple:
    """``(self_s, calls)`` per layer.

    A function's ``tottime`` goes to the layer owning its file.  Code
    outside the repository — C builtins such as ``zlib.crc32`` and
    numpy ufuncs, numpy's and the stdlib's Python — is charged to the
    layers of its callers, in proportion to the time the pstats caller
    edges give each, followed upwards until a repository file is
    reached."""
    table = stats.stats  # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    memo: dict = {}

    def layers_of(func) -> dict:
        """layer -> share of the function's time."""
        owner = _owner(func[0])
        if owner is not None:
            return {owner: 1.0}
        if func not in memo:
            memo[func] = {}  # met again below: a cycle of foreign frames, no information
            weights: dict = {}
            for caller, (nc, _cc, _tt, ct) in table[func][4].items():
                for layer, share in layers_of(caller).items():
                    # edges too short for the clock split by call count
                    weights[layer] = weights.get(layer, 0.0) + (ct or nc * 1e-9) * share
            total = sum(weights.values())
            # a frame nobody in the repository called is the harness's own
            memo[func] = ({k: w / total for k, w in weights.items()} if total
                          else {"perfbench": 1.0})
        return memo[func]

    self_s = dict.fromkeys(LAYERS + ("perfbench", "cache"), 0.0)
    calls = dict.fromkeys(LAYERS + ("perfbench", "cache"), 0)
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        for layer, share in layers_of(func).items():
            self_s[layer] += tt * share
        if func not in memo:
            calls[_owner(func[0])] += nc
    self_s["compression"] += self_s["cache"]
    calls["compression"] += calls["cache"]
    return self_s, calls


def host_self_time(wl, base_cpu: float) -> tuple:
    """``(metrics, output)`` of one repetition under cProfile, folded
    by layer.  ``base_cpu`` is an unprofiled repetition's CPU time."""
    prof = cProfile.Profile()
    cold()
    t = process_time()
    prof.enable()
    out = wl.run()
    prof.disable()
    profiled = process_time() - t
    self_s, calls = fold_profile(pstats.Stats(prof))
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    m["compression.cache_self_s"] = self_s.pop("cache")
    m["perfbench.self_s"] = self_s["perfbench"]
    m["profile.overhead_ratio"] = profiled / base_cpu
    # the profiler's clock is wall time; on a quiet box the folded
    # self times add up to the profiled repetition's CPU time
    m["profile.coverage_ratio"] = sum(self_s.values()) / profiled
    return m, out


# -- 2. program counters -------------------------------------------------------

def program_counters(wl, out) -> dict:
    """Exact counts of one ``trace=True`` repetition."""
    results = out.results
    total = lambda name: sum(r.tracer.metrics.counter_total(name) for r in results)
    events = sum(r.tracer.event_count for r in results)
    wire_bytes = sum(int(rec.meta.get("nbytes", 0)) for r in results
                     for rec in r.tracer.records if rec.category == "network")
    hits = sum(r.codec_cache["hits"] for r in results)
    misses = sum(r.codec_cache["misses"] for r in results)
    pool_hits = total("pool.hit")
    m = {
        "sim.events": events,
        "sim.events_per_msg": events / wl.messages,
        "sim.spans": sum(len(r.tracer.records) for r in results),
        "mpi.sends": total("mpi.sends"),
        "network.wire_bytes": wire_bytes,
        "network.busy_sim_us": total("wire.busy_seconds") * 1e6,
        "core.wire_ratio": wl.payload_bytes / wire_bytes,
    }
    if pool_hits + total("pool.miss"):
        m["gpu.pool_hit_ratio"] = pool_hits / (pool_hits + total("pool.miss"))
    if total("compress.bytes_out"):
        m["core.compression_ratio"] = (total("compress.bytes_in")
                                       / total("compress.bytes_out"))
    if hits + misses:
        m.update({"compression.cache_hits": hits,
                  "compression.cache_misses": misses,
                  "compression.cache_hit_ratio": hits / (hits + misses)})
    breakdowns = [r.breakdown() for r in results]
    for cat in SIM_CATEGORIES:
        busy = sum(b.get(cat, 0.0) for b in breakdowns)
        if busy:
            m[f"simtime.{cat}_us"] = 1e6 * busy
    return m


def trace_overhead(wl) -> tuple:
    """``(traced ÷ untraced CPU, traced output)`` of the simulation
    alone, median of three alternating pairs."""
    traced, bare, out = [], [], None
    for _ in range(3):
        out = None  # neither run works beside an earlier one's output
        cold()
        bare.append(cpu_of(lambda: wl.simulate(trace=False))[0])
        cold()
        cpu, out = cpu_of(lambda: wl.simulate(trace=True))
        traced.append(cpu)
    return median(traced) / median(bare), out


# -- 3. direct calls on the workload's own inputs ------------------------------

def _median_cpu(fn, n: int = 9) -> float:
    return median(cpu_of(fn)[0] for _ in range(n))


def _reduction_pct(t: float, base: float) -> float:
    return 100.0 * (1.0 - t / base)


def direct_codec_stream(wl, out, _stage_cpu) -> dict:
    data = wl.payloads["4M"]
    mb = data.nbytes / 1e6
    m = {}
    for label, codec in (("mpc", get_compressor("mpc")),
                         ("zfp8", get_compressor("zfp", rate=8))):
        comp = codec.compress(data)
        back = codec.decompress(comp)
        m[f"compression.{label}.encode_mb_per_s"] = mb / _median_cpu(
            lambda: codec.compress(data))
        m[f"compression.{label}.decode_mb_per_s"] = mb / _median_cpu(
            lambda: codec.decompress(comp))
        m[f"compression.{label}.ratio"] = data.nbytes / comp.nbytes
        if label == "zfp8":
            m["compression.zfp8.max_rel_err"] = float(
                np.abs(back - data).max() / np.abs(data).max())
    mpc = get_compressor("mpc")
    GLOBAL_CODEC_CACHE.compress(mpc, data)
    m["compression.cache_hit_us"] = 1e6 * _median_cpu(
        lambda: GLOBAL_CODEC_CACHE.compress(mpc, data))
    for key, t in out.sim_parts_us.items():
        m[f"core.sim_latency_us.{key}"] = t
    for cfg in wl.configs:
        if cfg != "baseline":
            m[f"core.sim_reduction_pct.{cfg}"] = _reduction_pct(
                out.sim_parts_us[f"{cfg}.16M"], out.sim_parts_us["baseline.16M"])
    return m


def direct_coll_relay(wl, out, _stage_cpu) -> dict:
    m = {}
    for op in COLLECTIVES:
        m[f"mpi.sim_latency_us.{op}"] = out.sim_parts_us[op]
        m[f"mpi.sim_reduction_pct.{op}"] = _reduction_pct(
            out.sim_parts_us[op], wl.reference_parts_us[op])
    return m


def direct_trace_pipeline(wl, out, stage_cpu: list) -> dict:
    """Stage times are medians over the timed repetitions; the JSON
    exporter and the happens-before pass (about cubic in spans) run
    once here, outside the timed pipeline."""
    stage = {s: median(rep[s] for rep in stage_cpu) for s in wl.stages}
    res = out.results[0]
    json_path = os.path.join(wl.tmp_dir, "trace.json")
    write_json_s, _ = cpu_of(
        lambda: write_chrome_trace(res.tracer, json_path, elapsed=res.elapsed))
    hb_s, _ = cpu_of(lambda: HBChecker.from_trace_file(wl.trace_path).check_all())
    return {
        "sim.traced_run_s": stage["traced_run"],
        "analysis.write_rprt_s": stage["write_rprt"],
        "analysis.rprt_bytes": os.path.getsize(wl.trace_path),
        "check.sanitize_s": stage["sanitize"],
        "analysis.critpath_s": stage["critpath"],
        "analysis.profile_s": stage["profile"],
        "analysis.write_json_s": write_json_s,
        "check.hb_s": hb_s,
    }


#: workload -> its direct measurements ``(wl, traced output, stage times)``
DIRECT = {"codec-stream": direct_codec_stream,
          "coll-relay-16": direct_coll_relay,
          "trace-pipeline": direct_trace_pipeline}
