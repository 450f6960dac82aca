"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``machines``              list the cluster presets
``codecs``                list codecs and the Table I feature matrix
``latency``               osu_latency sweep on a preset
``bcast`` / ``allgather`` /
``alltoall`` / ``allreduce``  collective latency with dataset payloads
``awp``                   AWP weak-scaling point
``dask``                  the transpose-sum benchmark
``table3``                dataset compression survey
``profile``               INAM-style communication profile of a run
``explain``               critical-path report for the slowest messages
``bench``                 benchmark-trajectory snapshot + regression gate
``perf``                  host-performance snapshot + relative regression gate
``trace``                 export a trace of one workload (Chrome JSON or
                          binary RPRT), or convert between the formats
``chaos``                 fault-injection sweep with bit-exactness checks
``check``                 linter + trace sanitizer + buffer asan + happens-before

Examples::

    python -m repro latency --machine longhorn --config zfp8 --sizes 1M,8M
    python -m repro bcast --dataset msg_sppm --config mpc-opt
    python -m repro awp --gpus 16 --config zfp8
    python -m repro trace latency --codec mpc --out trace.json
    python -m repro trace latency --codec mpc --out trace.rprt
    python -m repro trace convert trace.rprt trace.json
    python -m repro explain --codec mpc --size 4M
    python -m repro explain --trace trace.rprt
    python -m repro bench --quick --out BENCH_dev.json --compare BENCH_main.json
    python -m repro perf --quick --compare tests/data/HOSTPERF_baseline.json
    python -m repro chaos --config mpc-opt --corrupt-rate 0.05 --seed 3
    python -m repro check --lint
    python -m repro check --trace trace.json --format json
"""

from __future__ import annotations

import argparse
import sys

from repro.core import CompressionConfig
from repro.utils import fmt_bytes, format_table, parse_size


def _config(name: str) -> CompressionConfig:
    # Single source of truth for config names: the bench scenario matrix
    # (repro.analysis.bench) uses the same vocabulary.
    from repro.analysis.bench import named_config

    try:
        return named_config(name)
    except KeyError as exc:
        raise SystemExit(str(exc))


def cmd_machines(args) -> None:
    from repro.network.presets import MACHINES

    rows = [[p.name, p.device.name, p.max_gpus_per_node,
             p.intra_link.name, p.intra_link.bandwidth / 1e9,
             p.inter_link.name, p.inter_link.bandwidth / 1e9]
            for p in MACHINES.values()]
    print(format_table(
        ["machine", "gpu", "gpus/node", "intra", "GB/s", "inter", "GB/s"], rows))


def cmd_codecs(args) -> None:
    from repro.compression import feature_table

    print(format_table(
        ["design", "lossless", "lossy", "gpu", "single", "double",
         "high-tp", "mpi", "implemented"],
        feature_table(), title="Table I"))


def cmd_latency(args) -> None:
    from repro.omb import osu_latency

    rows = osu_latency(args.machine, sizes=args.sizes, config=_config(args.config),
                       payload=args.payload, inter_node=not args.intra)
    print(format_table(
        ["size", "latency_us"],
        [[fmt_bytes(r.nbytes), r.latency_us] for r in rows],
        title=f"osu_latency on {args.machine} [{args.config}]"))


def cmd_collective(args, op: str) -> None:
    from repro.omb import osu_allgather, osu_allreduce, osu_alltoall, osu_bcast

    fn = {"bcast": osu_bcast, "allgather": osu_allgather,
          "alltoall": osu_alltoall, "allreduce": osu_allreduce}[op]
    config = _config(args.config)
    if getattr(args, "rehop", False):
        config = config.with_(keep_compressed=False)
    kwargs = {}
    if op == "allreduce":
        kwargs["algorithm"] = args.algorithm
    r = fn(machine=args.machine, nodes=args.nodes, ppn=args.ppn,
           nbytes=parse_size(args.size), payload=f"dataset:{args.dataset}",
           config=config, **kwargs)
    algo = f"/{r.algorithm}" if getattr(r, "algorithm", None) else ""
    print(f"{op}{algo} {args.dataset} {args.size} on {args.nodes}x{args.ppn} "
          f"[{args.config}]: {r.latency_us:.1f} us")


def cmd_awp(args) -> None:
    from repro.apps.awp import run_awp

    r = run_awp(machine=args.machine, gpus=args.gpus, gpus_per_node=args.ppn,
                local_shape=(64, 64, 256), steps=args.steps,
                config=_config(args.config), surrogate=args.gpus > 16)
    print(f"AWP {args.gpus} GPUs [{args.config}]: {r.gflops:.1f} GFLOP/s, "
          f"{r.time_per_step * 1e3:.2f} ms/step, comm {r.comm_fraction:.0%}")


def cmd_dask(args) -> None:
    from repro.apps.dasklite import transpose_sum_benchmark

    r = transpose_sum_benchmark(n_workers=args.workers, dims=args.dims,
                                chunk=args.chunk, config=_config(args.config))
    print(f"Dask x+x.T {args.workers} workers [{args.config}]: "
          f"{r.execution_time * 1e3:.2f} ms, "
          f"{r.aggregate_throughput / 1e9:.1f} GB/s aggregate")


def cmd_table3(args) -> None:
    import numpy as np

    from repro.compression import MpcCompressor, ZfpCompressor
    from repro.datasets import dataset_names, generate
    from repro.datasets.catalog import get_spec

    rows = []
    for name in dataset_names():
        data = generate(name, scale=args.scale, seed=1)
        dim = MpcCompressor.best_dimensionality(data, range(1, 5))
        rows.append([
            name, 100 * len(np.unique(data)) / data.size,
            MpcCompressor(dim).compress(data).ratio, get_spec(name).cr_mpc,
            ZfpCompressor(16).compress(data).ratio,
        ])
    print(format_table(
        ["dataset", "unique%", "CR-MPC", "paper", "CR-ZFP16"], rows))


def cmd_profile(args) -> None:
    import json

    import numpy as np

    from repro.analysis import CommProfile
    from repro.mpi.cluster import Cluster
    from repro.network.presets import machine_preset

    if args.trace:
        try:
            profile = CommProfile.from_trace_file(args.trace)
        except (OSError, ValueError) as exc:  # RprtError is a ValueError
            raise SystemExit(f"cannot read {args.trace}: {exc}")
    else:
        cluster = Cluster(machine_preset(args.machine), nodes=args.nodes,
                          gpus_per_node=args.ppn)
        data = np.cumsum(np.ones(parse_size(args.size) // 4, dtype=np.float32))

        def rank_fn(comm):
            out = yield from comm.allgather(data)
            return len(out)

        res = cluster.run(rank_fn, config=_config(args.config))
        profile = CommProfile.from_result(res)
    if args.format == "json":
        text = json.dumps(profile.as_dict(), indent=1, sort_keys=True) + "\n"
    else:
        text = profile.report() + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out} [{args.format}]")
    else:
        print(text, end="")


# Codec shorthands for `repro trace`; full _CONFIGS names also work.
_CODECS = {"mpc": "mpc-opt", "zfp": "zfp8", "none": "baseline"}


def _trace_convert(args) -> None:
    from repro.analysis.traceio import convert

    if len(args.paths) != 2:
        raise SystemExit("usage: repro trace convert SRC DST [--format ...]")
    src, dst = args.paths
    try:
        stats = convert(src, dst, to=args.format)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot convert {src}: {exc}")
    if stats["format"] == "rprt":
        print(f"wrote {dst} [rprt]: {stats['stored_bytes']} bytes stored "
              f"({stats['raw_bytes']} raw, {stats['ratio']:.2f}x block "
              f"compression)")
    else:
        print(f"wrote {dst} [json]: {stats['events']} events")


def _one_way(data):
    """The rank function of ``trace latency`` and ``explain``: rank 0
    sends ``data`` to rank 1 (tag 7); each returns the bytes it moved."""

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, dest=1, tag=7)
            return data.nbytes
        received = yield from comm.recv(source=0, tag=7)
        return received.nbytes

    return rank_fn


def cmd_trace(args) -> None:
    from repro.analysis import write_chrome_trace
    from repro.analysis.rprt import write_trace_rprt
    from repro.mpi.cluster import Cluster
    from repro.network.presets import machine_preset
    from repro.omb.payload import make_payload

    if args.workload == "convert":
        _trace_convert(args)
        return
    if args.paths:
        raise SystemExit(f"unexpected arguments: {' '.join(args.paths)}")

    config = _config(_CODECS.get(args.codec, args.codec))
    data = make_payload(args.payload, parse_size(args.size), seed=1)

    if args.workload == "latency":
        cluster = Cluster(machine_preset(args.machine), nodes=2, gpus_per_node=1)
        rank_fn = _one_way(data)
    else:
        cluster = Cluster(machine_preset(args.machine), nodes=2, gpus_per_node=2)

        def rank_fn(comm):
            if args.workload == "bcast":
                out = yield from comm.bcast(data, root=0)
                return out.nbytes
            out = yield from comm.allgather(data)
            return len(out)

    res = cluster.run(rank_fn, config=config)
    fmt = args.format
    if fmt is None:
        fmt = "rprt" if args.out.lower().endswith(".rprt") else "json"
    try:
        if fmt == "rprt":
            stats = write_trace_rprt(res.tracer, args.out, elapsed=res.elapsed)
        else:
            write_chrome_trace(res.tracer, args.out, elapsed=res.elapsed)
    except OSError as exc:
        raise SystemExit(f"cannot write {args.out}: {exc}")
    n_spans = len(res.tracer.columns)
    extra = (f", {stats['ratio']:.2f}x block compression"
             if fmt == "rprt" else "")
    print(f"wrote {args.out} [{fmt}]: {n_spans} spans, "
          f"{res.elapsed * 1e6:.1f} us simulated "
          f"[{args.workload}, {args.codec}, {args.machine}]{extra}")


def cmd_explain(args) -> None:
    from repro.analysis import CritPathAnalyzer
    from repro.mpi.cluster import Cluster
    from repro.network.presets import machine_preset
    from repro.omb.payload import make_payload

    if args.trace:
        from repro.analysis.traceio import load_trace_records

        try:
            trace = load_trace_records(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read {args.trace}: {exc}")
    else:
        config = _config(_CODECS.get(args.codec, args.codec))
        data = make_payload(args.payload, parse_size(args.size), seed=1)
        cluster = Cluster(machine_preset(args.machine), nodes=2,
                          gpus_per_node=1)
        trace = cluster.run(_one_way(data), config=config).tracer
    print(CritPathAnalyzer(trace).explain(n=args.top))


def _snapshot_command(args, kind: str, module, advisory: bool,
                      **collect_args) -> None:
    """``bench`` and ``perf`` are one flow over their own matrix and gate
    policy: collect or load -> write -> compare -> exit."""
    from repro.analysis import snapshot

    try:
        current, baseline = (snapshot.load(path, kind) if path else None
                             for path in (args.against, args.compare))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load snapshot: {exc}")
    if current is None:
        try:
            current = module.collect(
                quick=args.quick, label=args.label, only=args.only,
                progress=lambda name: print(f"  running {name} ..."),
                **collect_args)
        except ValueError as exc:
            raise SystemExit(f"cannot collect snapshot: {exc}")
        out = args.out or f"{kind.upper()}_{args.label}.json"
        try:
            snapshot.write(current, out)
        except OSError as exc:
            raise SystemExit(f"cannot write {out}: {exc}")
        print(f"wrote {out}: {len(snapshot.entries(current))} entries "
              f"[{current['mode']}]")
    if baseline is not None:
        cmp = snapshot.compare(current, baseline, module.policy,
                               partial=args.only is not None,
                               advisory=advisory)
        print(cmp.report())
        if not cmp.ok:
            raise SystemExit(1)


def cmd_bench(args) -> None:
    from repro.analysis import bench

    _snapshot_command(args, "bench", bench, advisory=False,
                      record_wall=args.record_wall, scale=args.scale)


def cmd_perf(args) -> None:
    from repro.analysis import hostperf

    if args.selftest:
        failures = hostperf.selftest()
        if failures:
            for f in failures:
                print(f"selftest FAILED: {f}")
            raise SystemExit(1)
        print("hostperf selftest OK: injected regressions gate (exact counts "
              "and ratios under --advisory too), improvements do not")
        return
    _snapshot_command(args, "hostperf", hostperf, args.advisory,
                      reps=args.reps)


def cmd_chaos(args) -> None:
    from repro.errors import ResilienceError
    from repro.faults import FaultPlan
    from repro.faults.chaos import run_chaos, run_chaos_sweep

    plan = FaultPlan(
        seed=args.seed,
        corrupt_rate=args.corrupt_rate,
        drop_rate=args.drop_rate,
        oom_rate=args.oom_rate,
        pool_fail_rate=args.pool_fail_rate,
        compress_fail_rate=args.compress_fail_rate,
        decompress_corrupt_rate=args.decompress_corrupt_rate,
    )
    common = dict(machine=args.machine, sizes=tuple(args.sizes),
                  config=_config(args.config),
                  payload=args.payload, iterations=args.iters,
                  workload=args.workload, nodes=args.nodes,
                  gpus_per_node=args.ppn)
    try:
        if args.seed_sweep > 0:
            report = run_chaos_sweep(n_seeds=args.seed_sweep,
                                     base_seed=args.seed, plan=plan, **common)
        else:
            report = run_chaos(plan=plan, **common)
    except ValueError as exc:
        raise SystemExit(str(exc))
    except ResilienceError as exc:
        raise SystemExit(
            f"chaos run unrecoverable under {plan.describe()}: {exc}")
    print(report.summary())
    if not report.ok:
        raise SystemExit(1)


def cmd_check(args) -> None:
    from repro.check import run_check

    code = run_check(lint=args.lint,
                     trace=args.trace is not None and not args.hb,
                     asan=args.asan, selftest=args.selftest, hb=args.hb,
                     trace_files=args.trace or (), paths=args.path,
                     fmt=args.format)
    if code:
        raise SystemExit(code)


def _size(text: str) -> str:
    """argparse type of ``--size``: the text once it parses (banners
    print the size as given)."""
    try:
        parse_size(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def _sizes(text: str) -> list[int]:
    """argparse type of ``--sizes``: a comma-separated list, in bytes."""
    return [parse_size(_size(s)) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines")
    sub.add_parser("codecs")

    p = sub.add_parser("latency")
    p.add_argument("--machine", default="longhorn")
    p.add_argument("--config", default="baseline")
    p.add_argument("--sizes", default="256K,1M,4M", type=_sizes)
    p.add_argument("--payload", default="omb")
    p.add_argument("--intra", action="store_true")

    for op in ("bcast", "allgather", "alltoall", "allreduce"):
        p = sub.add_parser(op)
        p.add_argument("--machine", default="frontera-liquid")
        p.add_argument("--nodes", type=int, default=8)
        p.add_argument("--ppn", type=int, default=2)
        p.add_argument("--size", default="4M", type=_size)
        p.add_argument("--dataset", default="msg_sppm")
        p.add_argument("--config", default="mpc-opt")
        p.add_argument("--rehop", action="store_true",
                       help="decode+re-encode at every hop (ablation of "
                            "keep-compressed forwarding)")
        if op == "allreduce":
            p.add_argument("--algorithm", default=None,
                           help="ring | recursive_doubling | reduce_bcast "
                                "(default: auto by rank count)")

    p = sub.add_parser("awp")
    p.add_argument("--machine", default="frontera-liquid")
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--ppn", type=int, default=4)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--config", default="baseline")

    p = sub.add_parser("dask")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--dims", type=int, default=4096)
    p.add_argument("--chunk", type=int, default=1024)
    p.add_argument("--config", default="zfp8")

    p = sub.add_parser("table3")
    p.add_argument("--scale", type=float, default=0.03)

    p = sub.add_parser("profile")
    p.add_argument("--machine", default="longhorn")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--ppn", type=int, default=2)
    p.add_argument("--size", default="2M", type=_size)
    p.add_argument("--config", default="mpc-opt")
    p.add_argument("--trace", default=None, metavar="TRACE",
                   help="profile an exported trace file (Chrome JSON or "
                        "RPRT) instead of running a workload")
    p.add_argument("--out", default=None,
                   help="write the profile to FILE instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("explain")
    p.add_argument("--codec", default="mpc",
                   help="mpc | zfp | none, or any config name")
    p.add_argument("--machine", default="longhorn")
    p.add_argument("--size", default="1M", type=_size)
    p.add_argument("--payload", default="omb")
    p.add_argument("--trace", default=None, metavar="TRACE",
                   help="explain an exported trace file (Chrome JSON or "
                        "RPRT) instead of running a workload")
    p.add_argument("--top", type=int, default=5)

    # bench and perf are one snapshot flow (_snapshot_command) over
    # their own matrix: shared options first, then each one's own.
    snap = {}
    for name, prefix, only in (("bench", "BENCH", "--scenario"),
                               ("perf", "HOSTPERF", "--only")):
        p = snap[name] = sub.add_parser(name)
        p.add_argument("--quick", action="store_true",
                       help="CI-sized matrix")
        p.add_argument("--label", default="local")
        p.add_argument("--out", default=None,
                       help=f"snapshot path (default {prefix}_<label>.json)")
        p.add_argument(only, dest="only", default=None,
                       help="only run entries whose name contains this; the "
                            "run is then compared on what it collected")
        p.add_argument("--compare", default=None, metavar="BASELINE.json",
                       help="diff against a baseline; exit 1 on a gating drift")
        p.add_argument("--against", default=None, metavar="CURRENT.json",
                       help="compare an existing snapshot instead of re-running")
    p = snap["bench"]
    p.add_argument("--record-wall", action="store_true",
                   help="include advisory host wall-clock (breaks "
                        "byte-identical snapshots)")
    p.add_argument("--scale", action="store_true",
                   help="run the 1k+-rank scale matrix instead "
                        "(gate against tests/data/BENCH_scale_baseline.json)")
    p = snap["perf"]
    p.add_argument("--reps", type=int, default=5,
                   help="median-of-k repetitions per benchmark")
    p.add_argument("--advisory", action="store_true",
                   help="report host-timing drifts without gating on them "
                        "(exact counts and cost ratios still gate)")
    p.add_argument("--selftest", action="store_true",
                   help="prove the gate flags an injected synthetic regression")

    p = sub.add_parser("trace")
    p.add_argument("workload",
                   choices=("latency", "bcast", "allgather", "convert"),
                   help="workload to trace, or 'convert' to translate an "
                        "existing trace between JSON and RPRT")
    p.add_argument("paths", nargs="*", metavar="SRC DST",
                   help="source and destination files (convert only)")
    p.add_argument("--codec", default="mpc",
                   help="mpc | zfp | none, or any config name")
    p.add_argument("--machine", default="longhorn")
    p.add_argument("--size", default="1M", type=_size)
    p.add_argument("--payload", default="omb")
    p.add_argument("--format", choices=("json", "rprt"), default=None,
                   help="export container (default: by --out extension, "
                        "else json; for convert: by DST extension, else "
                        "the opposite of SRC)")
    p.add_argument("--out", default="trace.json")

    p = sub.add_parser("check")
    p.add_argument("--lint", action="store_true",
                   help="run only the determinism linter")
    p.add_argument("--trace", nargs="*", metavar="TRACE", default=None,
                   help="run only the trace sanitizer; with files, check "
                        "exported traces (Chrome JSON or RPRT) instead of "
                        "in-process runs")
    p.add_argument("--asan", action="store_true",
                   help="run only the buffer sanitizer smoke")
    p.add_argument("--hb", action="store_true",
                   help="run the happens-before analysis (races, message "
                        "races, deadlock cycles, WireImage typestate) "
                        "over --trace files or the in-process smokes")
    p.add_argument("--selftest", action="store_true",
                   help="prove each pass fails on the known-bad fixtures")
    p.add_argument("--path", nargs="*", default=(),
                   help="lint these files/dirs instead of the repro package")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("chaos")
    p.add_argument("--machine", default="longhorn")
    p.add_argument("--config", default="mpc-opt")
    p.add_argument("--workload", default="pt2pt",
                   choices=("pt2pt", "bcast", "allgather", "allreduce"),
                   help="collective workloads fault the relayed "
                        "keep-compressed hops too")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--ppn", type=int, default=1,
                   help="ranks per node (collectives default to 2)")
    p.add_argument("--sizes", default="256K,1M", type=_sizes)
    p.add_argument("--payload", default="omb")
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--corrupt-rate", type=float, default=0.05)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--oom-rate", type=float, default=0.0)
    p.add_argument("--pool-fail-rate", type=float, default=0.0)
    p.add_argument("--compress-fail-rate", type=float, default=0.0)
    p.add_argument("--decompress-corrupt-rate", type=float, default=0.0)
    p.add_argument("--seed-sweep", type=int, default=0, metavar="N",
                   help="repeat the run across N seeds and print aggregate "
                        "recovery statistics")

    args = parser.parse_args(argv)
    {
        "machines": cmd_machines,
        "codecs": cmd_codecs,
        "latency": cmd_latency,
        "bcast": lambda a: cmd_collective(a, "bcast"),
        "allgather": lambda a: cmd_collective(a, "allgather"),
        "alltoall": lambda a: cmd_collective(a, "alltoall"),
        "allreduce": lambda a: cmd_collective(a, "allreduce"),
        "awp": cmd_awp,
        "dask": cmd_dask,
        "table3": cmd_table3,
        "profile": cmd_profile,
        "explain": cmd_explain,
        "bench": cmd_bench,
        "perf": cmd_perf,
        "trace": cmd_trace,
        "chaos": cmd_chaos,
        "check": cmd_check,
    }[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
