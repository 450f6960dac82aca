"""Chaos harness: run an OMB-style workload under a fault plan and
verify that the resilience layer delivered every payload intact.

For each message size the harness runs the same multi-iteration
point-to-point workload twice — once clean, once under the fault plan —
and then checks the faulty run's received arrays bit-for-bit against
the clean run's.  For lossless codecs (and the uncompressed fallback)
the clean result *is* the original payload; for lossy codecs (zfp/sz)
it is the canonical decompression, so bit-equality to it proves the
recovery machinery reproduced exactly what a fault-free transfer would
have delivered (and in particular stayed within the codec's error
bound).

The report also aggregates the recovery cost: injected-fault counts,
retransmissions, fallbacks, and the simulated-time overhead versus the
clean run.  ``python -m repro chaos`` wraps this into a CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.core.config import CompressionConfig
from repro.faults.plan import FaultPlan
from repro.mpi.resilience import ResilienceConfig
from repro.utils.units import fmt_bytes

__all__ = ["run_chaos", "run_chaos_sweep", "ChaosReport", "ChaosSizeResult",
           "ChaosSweepReport"]


@dataclass
class ChaosSizeResult:
    """Outcome of one message size's clean-vs-faulty comparison."""

    nbytes: int
    messages: int          #: payloads delivered and verified
    mismatches: int        #: payloads whose bits differed from the clean run
    clean_elapsed: float   #: simulated seconds, fault-free run
    faulty_elapsed: float  #: simulated seconds, under the fault plan
    faults_injected: dict = field(default_factory=dict)   # kind -> count
    recovery_events: dict = field(default_factory=dict)   # event -> count

    @property
    def overhead(self) -> float:
        """Recovery cost as extra simulated time (seconds)."""
        return self.faulty_elapsed - self.clean_elapsed


@dataclass
class ChaosReport:
    """Aggregate of a chaos sweep."""

    plan: FaultPlan
    results: list[ChaosSizeResult]

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.results)

    @property
    def total_mismatches(self) -> int:
        return sum(r.mismatches for r in self.results)

    @property
    def ok(self) -> bool:
        """True when every delivered payload matched the clean run."""
        return self.total_mismatches == 0

    def summary(self) -> str:
        lines = [f"chaos sweep under {self.plan.describe()}"]
        for r in self.results:
            injected = sum(r.faults_injected.values())
            retrans = r.recovery_events.get("retransmit", 0)
            fallbacks = r.recovery_events.get("fallback", 0)
            lines.append(
                f"  {fmt_bytes(r.nbytes):>8}: {r.messages} msgs, "
                f"{r.mismatches} mismatches, {injected} faults, "
                f"{retrans} retransmits, {fallbacks} fallbacks, "
                f"+{r.overhead * 1e6:.1f} us recovery"
            )
        verdict = "all payloads verified" if self.ok else \
            f"{self.total_mismatches}/{self.total_messages} PAYLOAD MISMATCHES"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _counters_with_prefix(metrics, prefix: str) -> dict:
    out: dict[str, float] = {}
    for (name, labels), v in metrics._counters.items():
        if name.startswith(prefix):
            key = dict(labels).get("kind") if name == "faults.injected" \
                else name[len(prefix):]
            if key:
                out[key] = out.get(key, 0) + v
    return out


def _pt2pt_rank_fn(payloads):
    def rank_fn(comm):
        if comm.rank == 0:
            for i, p in enumerate(payloads):
                yield from comm.send(p, 1, tag=i)
            return None
        got = []
        for i in range(len(payloads)):
            r = yield from comm.recv(0, tag=i)
            got.append(r)
        return got
    return rank_fn


def _collective_rank_fn(op, payloads):
    """Every rank contributes a distinct payload (base + rank) and
    returns everything it received, so the clean/faulty comparison
    covers the *relayed* hops — the keep-compressed collectives forward
    the originating rank's wire image through intermediates, and a
    corrupted or dropped relay must be re-fetched from its immediate
    upstream bit-for-bit."""
    def rank_fn(comm):
        got = []
        for p in payloads:
            mine = p + np.asarray(comm.rank, dtype=p.dtype)
            if op == "bcast":
                out = yield from comm.bcast(p if comm.rank == 0 else None,
                                            root=0)
                got.append(np.asarray(out))
            elif op == "allgather":
                out = yield from comm.allgather(mine)
                got.extend(np.asarray(c) for c in out)
            elif op == "allreduce":
                out = yield from comm.allreduce(mine)
                got.append(np.asarray(out))
            else:  # pragma: no cover - validated by run_chaos
                raise ValueError(op)
        return got
    return rank_fn


WORKLOADS = ("pt2pt", "bcast", "allgather", "allreduce")


def run_chaos(
    machine: str = "longhorn",
    sizes: tuple = (1 << 18, 1 << 20),
    config: Optional[CompressionConfig] = None,
    plan: Optional[FaultPlan] = None,
    payload: str = "omb",
    iterations: int = 4,
    resilience: Optional[ResilienceConfig] = None,
    nodes: int = 2,
    gpus_per_node: int = 1,
    max_time: float = 60.0,
    asan: bool = True,
    workload: str = "pt2pt",
) -> ChaosReport:
    """OMB-style sweep under a fault plan, with bit-exactness checks.

    ``workload="pt2pt"`` (default): rank 0 streams ``iterations``
    distinct payloads per size to rank 1.  ``"bcast"`` /
    ``"allgather"`` / ``"allreduce"``: all ``nodes * gpus_per_node``
    ranks run the collective ``iterations`` times; the faulty run's
    results on EVERY rank are compared to the clean run's, which
    specifically exercises recovery on relayed (keep-compressed)
    collective hops.  Returns a :class:`ChaosReport`; ``report.ok`` is
    the pass/fail.

    ``asan`` (default on) runs every clean and faulty pass under the
    buffer sanitizer — the recovery paths are exactly where a stray
    double-release or leaked pool buffer would hide, and the sanitizer
    is pure bookkeeping so the bit-exactness comparison is unaffected.
    """
    from repro.mpi.cluster import Cluster
    from repro.omb.payload import make_payload

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    config = config or CompressionConfig.mpc_opt()
    plan = plan or FaultPlan(seed=1, corrupt_rate=0.05)
    if workload != "pt2pt" and gpus_per_node == 1 and nodes == 2:
        gpus_per_node = 2  # default to a 4-rank, multi-hop communicator
    cluster = Cluster(machine, nodes=nodes, gpus_per_node=gpus_per_node)
    results = []
    for nbytes in sizes:
        payloads = [make_payload(payload, nbytes, seed=i)
                    for i in range(iterations)]
        if workload == "pt2pt":
            rank_fn = _pt2pt_rank_fn(payloads)
        else:
            rank_fn = _collective_rank_fn(workload, payloads)

        nprocs = 2 if workload == "pt2pt" else None
        clean = cluster.run(rank_fn, nprocs=nprocs, config=config,
                            max_time=max_time, asan=asan)
        faulty = cluster.run(rank_fn, nprocs=nprocs, config=config,
                             faults=plan, resilience=resilience,
                             max_time=max_time, asan=asan)
        if workload == "pt2pt":
            expected = clean.values[1]
            received = faulty.values[1]
        else:
            expected = [a for per_rank in clean.values for a in per_rank]
            received = [a for per_rank in faulty.values for a in per_rank]
        mismatches = sum(
            0 if (e.dtype == r.dtype and e.shape == r.shape
                  and np.array_equal(e, r)) else 1
            for e, r in zip(expected, received)
        )
        m = faulty.tracer.metrics
        results.append(ChaosSizeResult(
            nbytes=nbytes,
            messages=len(received),
            mismatches=mismatches,
            clean_elapsed=clean.elapsed,
            faulty_elapsed=faulty.elapsed,
            faults_injected=_counters_with_prefix(m, "faults.injected"),
            recovery_events=_counters_with_prefix(m, "resilience."),
        ))
    return ChaosReport(plan=plan, results=results)


@dataclass
class ChaosSweepReport:
    """Aggregate of :func:`run_chaos_sweep` — one chaos run per seed."""

    reports: list            #: per-seed :class:`ChaosReport`
    seeds: tuple = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def summary(self) -> str:
        total_msgs = sum(r.total_messages for r in self.reports)
        total_bad = sum(r.total_mismatches for r in self.reports)
        overheads = [sr.overhead for r in self.reports for sr in r.results]
        mean_over = sum(overheads) / len(overheads) if overheads else 0.0
        lines = [f"chaos seed sweep: {len(self.reports)} seeds "
                 f"{list(self.seeds)}"]
        lines.append(f"  {total_msgs} payloads verified, "
                     f"{total_bad} mismatches")
        lines.append(f"  mean recovery overhead +{mean_over * 1e6:.1f} us")
        failed = [s for s, r in zip(self.seeds, self.reports) if not r.ok]
        lines.append("  => all seeds recovered bit-exactly" if self.ok
                     else f"  => FAILING SEEDS: {failed}")
        return "\n".join(lines)


def run_chaos_sweep(n_seeds: int = 3, base_seed: int = 1,
                    **kwargs) -> ChaosSweepReport:
    """Run :func:`run_chaos` across ``n_seeds`` derived fault plans
    (``seed = base_seed + i``) and aggregate recovery statistics.
    Every other keyword is forwarded to :func:`run_chaos`; only the
    seed changes, so the sweep varies where the plan's message faults
    land."""
    plan = kwargs.pop("plan", None) or FaultPlan(seed=base_seed)
    seeds = tuple(base_seed + i for i in range(n_seeds))
    reports = [run_chaos(plan=replace(plan, seed=s), **kwargs)
               for s in seeds]
    return ChaosSweepReport(reports=reports, seeds=seeds)
