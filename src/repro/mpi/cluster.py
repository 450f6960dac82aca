"""Job runner: builds a simulated cluster and runs SPMD rank functions.

A :class:`Cluster` is reusable and cheap — each :meth:`Cluster.run`
creates a fresh :class:`~repro.sim.Simulator`, topology, devices and
per-rank :class:`~repro.core.engine.CompressionEngine` instances, so
runs are fully independent and deterministic.

Example::

    from repro import quick_cluster
    from repro.core import CompressionConfig

    cluster = quick_cluster("longhorn", nodes=2, gpus_per_node=1)

    def pingpong(comm):
        import numpy as np
        data = np.linspace(0, 1, 1 << 20, dtype=np.float32)
        if comm.rank == 0:
            yield from comm.send(data, 1)
            back = yield from comm.recv(1)
        else:
            got = yield from comm.recv(0)
            yield from comm.send(got, 0)
        return comm.now

    res = cluster.run(pingpong, config=CompressionConfig.mpc_opt())
    print(res.elapsed, res.values)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core.config import CompressionConfig
from repro.core.engine import CompressionEngine
from repro.errors import DeadlockError, MpiError
from repro.faults import DROPPED, FaultInjector, FaultPlan
from repro.gpu.device import Device
from repro.mpi.comm import Communicator
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import Cts, Data, Rts
from repro.mpi.resilience import JITTER_SEED, CircuitBreaker, ResilienceConfig
from repro.network.presets import MachinePreset, machine_preset
from repro.network.topology import Topology
from repro.sim import Simulator, Tracer
from repro.sim.trace import trace_scope

__all__ = ["Cluster", "ClusterResult", "Runtime"]


class Runtime:
    """Shared per-run state the communicators operate on."""

    def __init__(self, sim: Simulator, topology: Topology, devices: list[Device],
                 config: CompressionConfig,
                 resilience: Optional[ResilienceConfig] = None):
        self.sim = sim
        self.topology = topology
        self.devices = devices
        self.config = config
        self.resilience = resilience or ResilienceConfig()
        self.resil_rng = random.Random(JITTER_SEED)
        self._engines = [CompressionEngine(sim, dev, config) for dev in devices]
        self._matching = [MatchingEngine(sim, r) for r in range(len(devices))]
        self._seq = 0
        self._breakers: dict[tuple[int, int], CircuitBreaker] = {}
        #: seq -> the message's DATA parts, kept while the receiver can NACK
        self._retransmit: dict[int, list] = {}
        #: communicator-id registry: group tuple -> comm id.  Keyed by
        #: the group itself, so every rank derives identical ids
        #: without communication (id 0 is the implicit world group).
        self._comm_ids: dict[tuple, int] = {}
        self._next_comm_id = 1

    @property
    def faults(self):
        """The run's fault injector, or ``None``."""
        return self.sim.faults

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- communicator derivation -----------------------------------------
    def comm_id_for(self, group) -> int:
        """Stable communicator id for a global-rank group — identical
        on every rank because the registry is keyed by the group
        itself, and run-deterministic because derivation order is."""
        group = tuple(group)
        cid = self._comm_ids.get(group)
        if cid is None:
            cid = self._next_comm_id
            self._next_comm_id += 1
            self._comm_ids[group] = cid
        return cid

    def derive_comm(self, grank: int, group) -> Communicator:
        """A re-ranked communicator over ``group`` for member ``grank``."""
        group = tuple(group)
        return Communicator(self, group.index(grank), len(group),
                            group=group, comm_id=self.comm_id_for(group))

    # -- resilience ------------------------------------------------------
    def resilience_event(self, kind: str, rank: Optional[int] = None, **meta):
        """Record one resilience action: a zero-duration span on the
        ``faults`` track plus a ``resilience.<kind>`` counter.  Only the
        recovery path calls this — a fault-free run records nothing."""
        tracer = self.sim.tracer
        if tracer is not None:
            now = self.sim.now
            tracer.span(now, now, "resilience", kind, rank=rank, track="faults",
                        **meta)
            tracer.metrics.inc(f"resilience.{kind}")

    def breaker_of(self, rank: int, peer: int) -> CircuitBreaker:
        """The per-(sender, receiver) compression circuit breaker."""
        key = (rank, peer)
        br = self._breakers.get(key)
        if br is None:
            def on_transition(old, new, now, _key=key):
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.span(now, now, "resilience", f"breaker_{new}",
                                rank=_key[0], track="faults", peer=_key[1],
                                previous=old)
                    tracer.metrics.inc("resilience.breaker_transitions",
                                       state=new)
                    if new == CircuitBreaker.OPEN:
                        # A failed half-open trial re-trips with a fresh
                        # cool-down; count it apart from first trips.
                        kind = ("retrip" if old == CircuitBreaker.HALF_OPEN
                                else "trip")
                        tracer.metrics.inc("resilience.breaker_trips",
                                           kind=kind)
            br = CircuitBreaker(self.resilience.breaker_threshold,
                                self.resilience.breaker_cooldown, on_transition)
            self._breakers[key] = br
        return br

    def register_retransmit(self, rts: Rts, parts: list) -> None:
        """Retain the DATA parts of the sender's original push — one
        per streamed partition, else the whole image — for possible
        retransmission.  Only active under a fault plane — in a
        fault-free run nothing is retained and :meth:`retire` is a
        silent no-op."""
        if self.sim.faults is not None and self.resilience.max_retries > 0:
            self._retransmit[rts.seq] = parts

    def retains(self, seq: int) -> bool:
        """True while message ``seq`` can still be retransmitted."""
        return seq in self._retransmit

    def retire(self, rts: Rts, success: bool, attempts: int) -> None:
        """The receiver finished (or gave up on) the message ``rts``
        after ``attempts`` failed attempts: withdraw the DATA waiters
        those left behind, drop its retransmit entry and update the
        sender's breaker."""
        if attempts:
            self.matching_of(rts.dst).withdraw_data(rts.seq)
        if self._retransmit.pop(rts.seq, None) is None or not rts.compressed:
            return
        br = self.breaker_of(rts.src, rts.dst)
        if success:
            br.record_success(self.sim.now)
        else:
            br.record_failure(self.sim.now)

    def push(self, rts: Rts, part: int, payload, attempt: int = 0,
             kernel_run=None):
        """Put DATA part ``part`` of attempt ``attempt`` of the message
        ``rts`` describes on the wire — after its compression kernel,
        when the plan streams (``kernel_run``) — and hand the receiver
        its ``Data`` packet, keyed by ``(part, attempt)`` so stale
        deliveries cannot satisfy a retry's waiter.  The original push
        of a streamed message has one part per partition (``pipe_data``,
        each in its own process); any other attempt is one part, the
        whole image ``payload`` (``rndv_data``, inside the sender's
        protocol process, or a retransmission's ``rndv_retry``)."""
        seq, src, dst = rts.seq, rts.src, rts.dst
        if kernel_run is not None:
            yield from kernel_run(part)
        if attempt == 0 and rts.streamed:
            nbytes, label, ids = payload.nbytes, "pipe_data", {"part": part}
        else:
            nbytes, ids = rts.wire_nbytes, {}
            label = "rndv_retry" if attempt else "rndv_data"
        with trace_scope(self.sim, "pipeline", "wire_transfer", rank=src,
                         seq=seq, **ids, nbytes=nbytes, dst=dst,
                         **rts.meta(attempt)):
            delivered = yield from self.topology.transfer(
                src, dst, nbytes, label=label, payload=payload)
        if attempt:
            self.resilience_event("retransmit", rank=src, seq=seq, dst=dst,
                                  attempt=attempt)
        if delivered is DROPPED:
            return  # the receiver's data timeout will fire (again)
        self.matching_of(dst).deliver_data(Data(src, seq, part, attempt, delivered))

    def nack(self, rts: Rts, attempt: int) -> None:
        """A NACK for the retained message ``rts`` reached its sender:
        count it against the breaker when the rejected payload was
        compressed, and push the whole image again as ``attempt``
        (async sender-side process) — a streamed message's parts joined
        into one, whose partition table the header still describes."""
        if rts.compressed:
            self.breaker_of(rts.src, rts.dst).record_failure(self.sim.now)
        parts = self._retransmit[rts.seq]
        payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.sim.process(self.push(rts, 0, payload, attempt),
                         name=f"retransmit{rts.seq}.{attempt}")

    def matching_report(self) -> str:
        """Per-rank matching diagnostics for deadlock/timeout errors."""
        parts = [m.diagnostics() for m in self._matching if not m.idle]
        return "\n".join(parts) if parts else "all ranks idle"

    # Ranks map 1:1 onto GPUs, block-assigned to nodes.
    def device_of(self, rank: int) -> Device:
        return self.devices[rank]

    def engine_of(self, rank: int) -> CompressionEngine:
        return self._engines[rank]

    def matching_of(self, rank: int) -> MatchingEngine:
        return self._matching[rank]

    def control_delay(self, pkt: Rts | Cts):
        """Control packets (RTS/CTS/NACK) ride the fabric's latency
        without holding data-path links (small-message send queues)."""
        if pkt.src == pkt.dst:
            return
        lat = self.topology.path_latency(pkt.src, pkt.dst)
        bw = self.topology.path_bandwidth(pkt.src, pkt.dst)
        yield self.sim.timeout(lat + pkt.control_bytes() / bw)


@dataclass
class ClusterResult:
    """Outcome of one :meth:`Cluster.run`."""

    values: list
    elapsed: float
    tracer: Tracer
    runtime: Runtime = field(repr=False, default=None)
    #: the run's buffer sanitizer (None when disabled)
    asan: object = field(repr=False, default=None)
    #: host-side codec-cache activity during this run (hits / misses /
    #: bytes_saved deltas of the process-wide cache).  Wall-clock
    #: bookkeeping only: it depends on what earlier runs already
    #: cached, so it is deliberately kept out of the tracer metrics
    #: that the determinism suite fingerprints.
    codec_cache: dict = field(repr=False, default_factory=dict)

    def breakdown(self) -> dict[str, float]:
        """Summed tracer spans per category (see Figs 6/8/10)."""
        return self.tracer.breakdown()


class Cluster:
    """A named machine shape: preset x nodes x GPUs-per-node."""

    def __init__(self, preset: MachinePreset | str, nodes: int = 2, gpus_per_node: int = 1):
        if isinstance(preset, str):
            preset = machine_preset(preset)
        self.preset = preset
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node

    @property
    def n_gpus(self) -> int:
        return self.nodes * self.gpus_per_node

    def run(
        self,
        rank_fn: Callable,
        nprocs: Optional[int] = None,
        config: Optional[CompressionConfig] = None,
        args: tuple = (),
        max_time: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        asan: bool | str = False,
        trace: bool = True,
    ) -> ClusterResult:
        """Run ``rank_fn(comm, *args)`` as an SPMD job.

        Parameters
        ----------
        rank_fn:
            Generator function taking a
            :class:`~repro.mpi.comm.Communicator` (plus ``args``).
        nprocs:
            Ranks to launch; defaults to every GPU.  Must not exceed
            the GPU count (one rank per GPU, as in the paper's runs).
        config:
            Compression configuration; defaults to disabled.
        max_time:
            Optional simulated-seconds cap (guards against livelock).
        faults:
            Optional :class:`~repro.faults.FaultPlan` — installs a
            seeded fault injector for this run (chaos testing).
        resilience:
            Optional :class:`~repro.mpi.resilience.ResilienceConfig`;
            defaults to ``ResilienceConfig.for_plan(faults)``.
        asan:
            Enable the buffer sanitizer (:mod:`repro.check.asan`) for
            this run; the run is leak-checked at successful completion.
            The string ``"record"`` additionally logs every buffer
            access for the happens-before race detector
            (:mod:`repro.check.hb`).
        trace:
            Record spans/metrics (default).  ``trace=False`` attaches
            no tracer — the mode that makes 1k+ rank runs affordable (a
            traced 1024-rank allgather would allocate millions of span
            records).  The returned :attr:`ClusterResult.tracer` is
            then a detached, empty tracer.
        """
        from repro.check.asan import BufferSanitizer

        config = config or CompressionConfig.disabled()
        nprocs = nprocs or self.n_gpus
        if nprocs > self.n_gpus:
            raise MpiError(f"{nprocs} ranks > {self.n_gpus} GPUs (one rank per GPU)")
        sim = Simulator()
        tracer = Tracer(sim) if trace else Tracer()
        sanitizer = (BufferSanitizer(record_accesses=(asan == "record"))
                     if asan else None)
        sim.asan = sanitizer
        if faults is not None:
            FaultInjector(sim, faults)  # attaches itself as sim.faults
        resilience = resilience or ResilienceConfig.for_plan(faults)
        topology = Topology(sim, self.preset, self.nodes, self.gpus_per_node)
        devices = [Device(sim, self.preset.device, i) for i in range(self.n_gpus)]
        runtime = Runtime(sim, topology, devices, config, resilience=resilience)
        procs = [
            sim.process(rank_fn(Communicator(runtime, r, nprocs), *args),
                        name=f"rank{r}")
            for r in range(nprocs)
        ]
        cache_before = GLOBAL_CODEC_CACHE.stats()
        sim.run(until=max_time)
        cache_after = GLOBAL_CODEC_CACHE.stats()
        cache_delta = {
            k: cache_after[k] - cache_before[k]
            for k in ("hits", "misses", "bytes_saved")
        }
        for p in procs:  # a crashed rank is more diagnosable than the
            if p.triggered and not p.ok:  # deadlock it leaves behind
                raise p.value
        incomplete = [p.name for p in procs if not p.triggered]
        if incomplete:
            raise DeadlockError(
                f"ranks never completed: {incomplete} — unmatched send/recv "
                f"or a collective not entered by every rank",
                diagnostic=runtime.matching_report(),
            )
        if sanitizer is not None:
            # Every rank completed: all checked-out buffers must be home.
            sanitizer.assert_clean()
        return ClusterResult(values=[p.value for p in procs], elapsed=sim.now,
                             tracer=tracer, runtime=runtime, asan=sanitizer,
                             codec_cache=cache_delta)

    def __repr__(self) -> str:
        return f"<Cluster {self.preset.name} {self.nodes}x{self.gpus_per_node}>"
