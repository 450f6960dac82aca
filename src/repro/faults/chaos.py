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
from repro.errors import CollectiveAbortedError
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
    #: global ranks the plan fail-stopped mid-run
    killed: tuple = ()
    #: shrink-and-rollback cycles the survivors executed
    recoveries: int = 0

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
            extra = ""
            if r.killed:
                extra = (f", killed ranks {list(r.killed)}, "
                         f"{r.recoveries} shrink+rollback recoveries")
            lines.append(
                f"  {fmt_bytes(r.nbytes):>8}: {r.messages} msgs, "
                f"{r.mismatches} mismatches, {injected} faults, "
                f"{retrans} retransmits, {fallbacks} fallbacks, "
                f"+{r.overhead * 1e6:.1f} us recovery{extra}"
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


def _failstop_init(n: int, grank: int) -> np.ndarray:
    """Per-rank initial field: integer-valued float32 so fixed-order
    reductions stay exact and any bit flip is attributable."""
    return np.full(n, np.float32(grank % 5 + 1), dtype=np.float32)


def _failstop_step(cur, op, state, step):
    """One application step of the fail-stop workloads (generator).

    Each step is a pure deterministic function of (communicator group,
    state, step), so a rolled-back-and-replayed step reproduces the
    original bits and the shrunk-reference run is exactly comparable.
    """
    if op == "allreduce":
        contrib = np.full_like(state, np.float32((cur.grank + 1) * (step % 7 + 1)))
        total = yield from cur.allreduce(contrib)
        return (state + np.asarray(total)).astype(np.float32)
    if op == "bcast":
        msg = (state + np.float32(step + 1)) if cur.rank == 0 else None
        out = yield from cur.bcast(msg, root=0)
        return (np.asarray(out) + np.float32(cur.grank % 3)).astype(np.float32)
    if op == "awp":
        # AWP-style neighbour coupling on a ring: exchange faces, fold
        # in both neighbours' fields.  After a shrink the ring re-knits
        # over the survivors, like re-decomposing the AWP process grid.
        faces = yield from cur.allgather(state)
        left = np.asarray(faces[(cur.rank - 1) % cur.size])
        right = np.asarray(faces[(cur.rank + 1) % cur.size])
        return (state + left + right).astype(np.float32)
    raise ValueError(op)  # pragma: no cover - validated by run_chaos


def _failstop_rank_fn(op, n, steps):
    """Stepping workload with checkpoint/rollback + shrink recovery.

    On :class:`~repro.errors.CollectiveAbortedError` the rank shrinks
    the communicator, allgathers every survivor's latest checkpoint
    step, restores the newest checkpoint common to all of them (ranks
    can be a step apart when the victim died between their collectives)
    and resumes on the shrunk communicator.  No checkpoint yet means a
    cold restart from the initial field.
    """
    def rank_fn(comm):
        state = _failstop_init(n, comm.grank)
        cur = comm
        step = 0
        restarts = []  # (resume step, shrunk group) per completed recovery
        recovering = False
        while True:
            try:
                if recovering:
                    # The whole recovery is itself abortable (a second
                    # failure mid-recovery just restarts it); restarts
                    # is appended only once a recovery completes.
                    cur = yield from cur.shrink()
                    latest = cur.restore()
                    mine = latest[0] if latest is not None else -1
                    if cur.size > 1:
                        gathered = yield from cur.allgather(
                            np.asarray([mine], dtype=np.float32))
                        common = int(min(float(np.asarray(g)[0])
                                         for g in gathered))
                    else:
                        common = int(mine)
                    if common >= 0:
                        _, saved = cur.restore(step=common)
                        state = np.array(saved, dtype=np.float32, copy=True)
                        step = common + 1
                    else:
                        state = _failstop_init(n, comm.grank)
                        step = 0
                    restarts.append((step, tuple(cur.group)))
                    recovering = False
                if step < steps:
                    state = yield from _failstop_step(cur, op, state, step)
                    if cur.should_checkpoint(step):
                        cur.checkpoint(step, state.copy())
                    step += 1
                    continue
                # Completion fence: a peer may still abort behind us
                # (collectives complete non-uniformly), in which case we
                # must rejoin the recovery rather than exit and strand
                # its shrink agreement.
                yield from cur.barrier()
                return {"state": state, "group": tuple(cur.group),
                        "restarts": tuple(restarts)}
            except CollectiveAbortedError:
                recovering = True
    return rank_fn


def _failstop_replay_fn(op, n, steps, restarts):
    """Fault-free replay of a recovered run's final composition.

    ``restarts`` is the chronological ``(resume_step, group)`` history
    one survivor reported.  The group in effect at step ``t`` is the
    *latest* restart whose resume step is <= t (a later rollback can
    rewind past an earlier one), else the full communicator.  Ranks
    outside the group in effect return once they stop participating.
    """
    def rank_fn(comm):
        state = _failstop_init(n, comm.grank)
        cur = comm
        for step in range(steps):
            grp = None
            for s, g in restarts:
                if s <= step:
                    grp = g
            if grp is not None and tuple(cur.group) != tuple(grp):
                if comm.grank not in grp:
                    return None
                cur = comm.subset(grp)
            state = yield from _failstop_step(cur, op, state, step)
        return {"state": state, "group": tuple(cur.group)}
    return rank_fn


WORKLOADS = ("pt2pt", "bcast", "allgather", "allreduce", "awp")
#: workloads that support fail-stop recovery (stepping + checkpoint)
FAILSTOP_WORKLOADS = ("bcast", "allreduce", "awp")


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
    checkpoint_every: int = 2,
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

    Plans with ``rank_failures`` (and the ``"awp"`` workload always)
    run the *stepping* variant instead: ``iterations`` application
    steps with a checkpoint every ``checkpoint_every`` steps.  On a
    fail-stop abort the survivors shrink the communicator, agree on the
    newest common checkpoint, roll back and continue; the faulty run's
    surviving states are then compared bit-for-bit against a fault-free
    replay of the same full-comm-prefix + shrunk-suffix composition.
    """
    from repro.mpi.cluster import Cluster
    from repro.omb.payload import make_payload

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    config = config or CompressionConfig.mpc_opt()
    plan = plan or FaultPlan(seed=1, corrupt_rate=0.05)
    failstop = plan.has_rank_failures or workload == "awp"
    if failstop and workload not in FAILSTOP_WORKLOADS:
        raise ValueError(
            f"rank-failure plans need a fail-stop workload "
            f"{FAILSTOP_WORKLOADS}, not {workload!r}")
    if workload != "pt2pt" and gpus_per_node == 1 and nodes == 2:
        gpus_per_node = 2  # default to a 4-rank, multi-hop communicator
    cluster = Cluster(machine, nodes=nodes, gpus_per_node=gpus_per_node)
    results = []
    for nbytes in sizes:
        if failstop:
            results.append(_run_failstop_size(
                cluster, workload, nbytes, iterations, config, plan,
                resilience, max_time, asan, checkpoint_every))
            continue
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


def _run_failstop_size(cluster, workload, nbytes, steps, config, plan,
                       resilience, max_time, asan, checkpoint_every):
    """One size of the fail-stop stepping comparison (see run_chaos)."""
    n = max(1, nbytes // 4)  # float32 field elements
    rank_fn = _failstop_rank_fn(workload, n, steps)
    faulty = cluster.run(rank_fn, config=config, faults=plan,
                         resilience=resilience, max_time=max_time,
                         asan=asan, checkpoint_every=checkpoint_every)
    survivors = {r: v for r, v in enumerate(faulty.values)
                 if isinstance(v, dict)}
    restarts = next(iter(survivors.values()))["restarts"] if survivors else ()
    ref_fn = _failstop_replay_fn(workload, n, steps, restarts)
    clean = cluster.run(ref_fn, config=config, max_time=max_time, asan=asan,
                        checkpoint_every=checkpoint_every)
    mismatches = 0
    for r, v in survivors.items():
        expect = clean.values[r]
        ok = (isinstance(expect, dict)
              and tuple(expect["group"]) == tuple(v["group"])
              and expect["state"].dtype == v["state"].dtype
              and expect["state"].shape == v["state"].shape
              and np.array_equal(expect["state"], v["state"]))
        mismatches += 0 if ok else 1
    m = faulty.tracer.metrics
    return ChaosSizeResult(
        nbytes=nbytes,
        messages=len(survivors),
        mismatches=mismatches,
        clean_elapsed=clean.elapsed,
        faulty_elapsed=faulty.elapsed,
        faults_injected=_counters_with_prefix(m, "faults.injected"),
        recovery_events=_counters_with_prefix(m, "resilience."),
        killed=tuple(k.rank for k in faulty.killed),
        recoveries=len(restarts),
    )


@dataclass
class ChaosSweepReport:
    """Aggregate of :func:`run_chaos_sweep` — one chaos run per seed."""

    reports: list            #: per-seed :class:`ChaosReport`
    seeds: tuple = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def summary(self) -> str:
        total_kills = sum(len(sr.killed) for r in self.reports
                          for sr in r.results)
        total_recov = sum(sr.recoveries for r in self.reports
                          for sr in r.results)
        total_msgs = sum(r.total_messages for r in self.reports)
        total_bad = sum(r.total_mismatches for r in self.reports)
        overheads = [sr.overhead for r in self.reports for sr in r.results]
        mean_over = sum(overheads) / len(overheads) if overheads else 0.0
        lines = [f"chaos seed sweep: {len(self.reports)} seeds "
                 f"{list(self.seeds)}"]
        lines.append(f"  {total_msgs} payloads verified, "
                     f"{total_bad} mismatches")
        lines.append(f"  {total_kills} rank kills, {total_recov} "
                     f"shrink+rollback recoveries, mean recovery overhead "
                     f"+{mean_over * 1e6:.1f} us")
        failed = [s for s, r in zip(self.seeds, self.reports) if not r.ok]
        lines.append("  => all seeds recovered bit-exactly" if self.ok
                     else f"  => FAILING SEEDS: {failed}")
        return "\n".join(lines)


def run_chaos_sweep(n_seeds: int = 3, base_seed: int = 1,
                    **kwargs) -> ChaosSweepReport:
    """Run :func:`run_chaos` across ``n_seeds`` derived fault plans
    (``seed = base_seed + i``) and aggregate recovery statistics.
    Every other keyword is forwarded to :func:`run_chaos`; the plan's
    rank-failure specs are kept identical across seeds so the sweep
    varies message-fault timing around the same kill schedule."""
    plan = kwargs.pop("plan", None) or FaultPlan(seed=base_seed)
    seeds = tuple(base_seed + i for i in range(n_seeds))
    reports = [run_chaos(plan=replace(plan, seed=s), **kwargs)
               for s in seeds]
    return ChaosSweepReport(reports=reports, seeds=seeds)
