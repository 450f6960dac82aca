"""One workload in one fresh interpreter (started by ``run.py``).

    set-up -> warm-up repetition -> references -> timed repetitions
           -> [layer pass]

Prints one JSON object: the end-to-end metrics, the per-layer metrics
the workload measures when ``--layers`` is given, and the operation
counts.  ``--setup-only`` stops after the warm-up and reports
``setup_s`` alone — ``run.py`` launches several of these because a
single launch's set-up time moves with first-touch and disk-cache
effects.

The gated host times (``setup_s``, ``host_cpu_s``) are CPU seconds at
nominal box speed, see ``at_nominal_speed``; every other time is CPU
seconds as measured.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

SHRINK_SELFTEST = 4

#: the probe's CPU seconds on the 2-core VM this benchmark was sized on,
#: when that VM is quiet.  It only fixes the unit of the host times:
#: every comparison between two commits is a ratio and does not see it.
PROBE_NOMINAL_S = 0.060


def make_probe():
    """A fixed piece of work that shares no code with ``src/``: a
    pure-Python loop (the interpreter-bound half) and numpy passes over
    two 8 MiB arrays (the memory-bound half), about 30 ms each.  The
    function returned runs it once and gives its CPU seconds, which
    tell how fast the box runs right now."""
    import numpy as np

    a = np.full(2 << 20, 1.5, dtype=np.float32)
    b = np.ones_like(a)
    bits = b.view(np.uint32)

    def probe() -> float:
        t = time.process_time()
        acc = 0
        for i in range(800_000):
            acc += i & 7
        for _ in range(4):
            np.multiply(a, 1.0001, out=b)
            np.cumsum(b, out=b)
            np.right_shift(bits, 3, out=bits)
        return time.process_time() - t

    return probe


def at_nominal_speed(cpu_s: float, probes: list) -> float:
    """CPU seconds as they would read with the box at nominal speed,
    given probes timed next to them."""
    return cpu_s * PROBE_NOMINAL_S / median(probes)


def timed_loop(wl, seconds: float, cold, host_probe) -> dict:
    """Closed loop, one client: the next repetition starts when the
    previous one has returned and been checked.  Runs for ``seconds``
    (at least one repetition), a probe before and after each."""
    cpu, nominal, wall, stage_cpu = [], [], [], []
    failed, sim_latency_us = 0, 0.0
    deadline = time.perf_counter() + seconds
    cold()
    probes = [host_probe()]
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run()
        except Exception:  # a repetition that raises fails all its operations
            traceback.print_exc()
            out = None
        c1, w1 = time.process_time(), time.perf_counter()
        cpu.append(c1 - c0)
        wall.append(w1 - w0)
        if out is None:
            failed += wl.ops
        else:
            failed += wl.check(out)
            stage_cpu.append(out.stage_cpu_s)
            sim_latency_us = out.sim_latency_us
        # the next repetition must not run beside this one's output:
        # peak RSS and page faults would be the harness's, not the program's
        del out
        cold()
        probes.append(host_probe())
        nominal.append(at_nominal_speed(cpu[-1], probes[-2:]))
        if time.perf_counter() >= deadline:
            break
    return {
        "reps": len(cpu), "failed": failed, "cpu_s": median(nominal),
        "cpu_raw_s": median(cpu), "wall_s": median(wall),
        "probe_s": median(probes),
        # the highest percentile that still has ten samples beyond it
        "cpu_hi_s": sorted(cpu)[max(0, len(cpu) - 11)],
        "sim_latency_us": sim_latency_us,
        "stage_cpu": stage_cpu,
    }


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true",
                    help="reduced problem size (selftest)")
    args = ap.parse_args(argv)

    # -- set-up: everything up to the end of the warm-up repetition -----
    import layers as L
    import workloads as W

    t_import = user_cpu()
    wl = W.WORKLOADS[args.workload](args.seed,
                                    shrink=SHRINK_SELFTEST if args.small else 1)
    try:
        t_inputs = user_cpu()
        L.cold()
        warm = wl.run()
        # User-mode CPU seconds since the interpreter started.  Kernel
        # time is left out of the gated metric: in this VM a page's
        # first touch is served by the hypervisor, and one and the same
        # launch measured 0.1 s or 6.2 s of it depending on the host's
        # state.  It is reported beside it as ``setup.sys_s``.
        usage = resource.getrusage(resource.RUSAGE_SELF)
        setup_raw, setup_sys = usage.ru_utime, usage.ru_stime
        L.cold()
        host_probe = make_probe()
        setup_s = at_nominal_speed(setup_raw, [host_probe() for _ in range(5)])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # -- references: untimed, and not beside the warm-up's output ----
        wl.keep_from_warmup(warm)
        del warm
        wl.prepare_references()

        loop = timed_loop(wl, args.seconds, L.cold, host_probe)
        attempted, failed = loop["reps"] * wl.ops, loop["failed"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        result = {"end_to_end": {
            "setup_s": setup_s,
            "host_cpu_s": loop["cpu_s"],
            "sim_msgs_per_host_s": wl.messages / loop["cpu_s"],
            "sim_latency_us": loop["sim_latency_us"],
            "peak_rss_mb": peak_rss_mb,
        }}

        if args.layers:
            m, out = L.host_self_time(wl, loop["cpu_raw_s"])
            attempted, failed = attempted + wl.ops, failed + wl.check(out)
            m["sim.trace_overhead_ratio"], out = L.trace_overhead(wl)
            m.update(L.program_counters(wl, out))
            if args.workload in L.DIRECT:
                m.update(L.DIRECT[args.workload](wl, out, loop["stage_cpu"]))
            m.update({
                "setup.import_s": t_import, "setup.inputs_s": t_inputs - t_import,
                "setup.warmup_s": setup_raw - t_inputs, "setup.sys_s": setup_sys,
                "run.reps": loop["reps"], "run.cpu_raw_s": loop["cpu_raw_s"],
                "run.wall_s": loop["wall_s"], "run.cpu_hi_s": loop["cpu_hi_s"],
                "run.msgs_per_rep": wl.messages,
                "run.payload_mb_per_rep": wl.payload_bytes / (1 << 20),
                "run.host_probe_s": loop["probe_s"],
            })
            result["per_layer"] = m
        result.update(attempted=attempted, failed=failed)
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
