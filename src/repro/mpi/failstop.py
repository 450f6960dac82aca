"""Fail-stop rank failures and their detection substrate.

A :class:`FailStopManager` is created by :class:`~repro.mpi.cluster.Cluster`
only when the fault plan carries :attr:`~repro.faults.plan.FaultPlan.
rank_failures` — a zero-failure plan allocates nothing here, keeping
the trace-identity invariant of the fault plane.

The manager owns the liveness ground truth:

* a **dead registry** — ``global rank -> (incarnation, killed_at)``,
  consulted by every survivor's failure detector;
* a per-rank **death event** — a pending simulator event that succeeds
  the instant the rank is killed; blocking protocol waits race it via
  ``any_of`` so a survivor stuck on a dead peer wakes up without
  polling (and without arming per-wait timers that would perturb
  fault-free timelines);
* a **revoked set** of communicator ids — ULFM semantics: a revoked
  communicator stays revoked; recovery derives a fresh communicator
  (fresh id) over the survivors via ``Comm.shrink()``.

Kill mechanics: every simulated process — and every eager operation,
which runs as scheduler callbacks without one — is registered under its
(global) rank.  ``at_time`` kills run off a timebomb process; on
``after_sends`` kills the dying rank raises :class:`RankKilled` in its
own frame (a running process cannot interrupt itself).  Either way all
the rank's other live processes get :class:`~repro.sim.engine.Interrupt`
with a :class:`KillCause` — and are defused, since a dying rank's
protocol helpers unwinding is the *expected* outcome, not a simulation
bug to re-raise at end of run.  The rank's *main* process is wrapped by
the cluster supervisor, which converts the kill into a :data:`KILLED`
sentinel return value so the run completes normally on the survivors.
"""

from __future__ import annotations

from repro.sim import Process

__all__ = ["FailStopManager", "KillCause", "RevokeCause", "RankKilled",
           "KILLED", "KilledRank"]


class RankKilled(BaseException):
    """Raised *inside* a rank's own frame when it hits its fail-stop
    trigger mid-send.  Derives from ``BaseException`` so application
    code catching ``Exception`` cannot accidentally survive its own
    death; only the cluster supervisor absorbs it."""

    def __init__(self, rank: int, incarnation: int = 0):
        super().__init__(f"rank {rank} suffered a fail-stop failure")
        self.rank = rank
        self.incarnation = incarnation


class KillCause:
    """``Interrupt.cause`` delivered to every process of a dying rank."""

    __slots__ = ("rank", "incarnation")

    def __init__(self, rank: int, incarnation: int = 0):
        self.rank = rank
        self.incarnation = incarnation

    def __repr__(self) -> str:
        return f"<KillCause rank={self.rank} inc={self.incarnation}>"


class RevokeCause:
    """``Interrupt.cause`` delivered to survivors blocked inside a
    collective on a revoked communicator."""

    __slots__ = ("failed_ranks", "comm_id")

    def __init__(self, failed_ranks: tuple, comm_id: int = 0):
        self.failed_ranks = tuple(failed_ranks)
        self.comm_id = comm_id

    def __repr__(self) -> str:
        return f"<RevokeCause failed={self.failed_ranks} comm={self.comm_id}>"


class KilledRank:
    """Sentinel return value of a killed rank's main process."""

    __slots__ = ("rank", "incarnation", "killed_at")

    def __init__(self, rank: int, incarnation: int, killed_at: float):
        self.rank = rank
        self.incarnation = incarnation
        self.killed_at = killed_at

    def __repr__(self) -> str:
        return (f"<KilledRank rank={self.rank} inc={self.incarnation} "
                f"at t={self.killed_at:.9f}>")


#: class-level marker tests can use with ``isinstance``
KILLED = KilledRank


class FailStopManager:
    """Tracks rank liveness and executes the plan's kill specs."""

    def __init__(self, sim, n_ranks: int, injector=None):
        self.sim = sim
        self.n_ranks = n_ranks
        self.injector = injector
        #: global rank -> (incarnation, killed_at)
        self.dead: dict[int, tuple[int, float]] = {}
        #: global rank -> pending death event (succeeds on kill)
        self._death_events: dict[int, object] = {}
        #: global rank -> pending kill specs (after_sends countdowns)
        self._send_bombs: dict[int, object] = {}
        self._send_counts: dict[int, int] = {}
        #: global rank -> processes and operation handles owned by it
        self._procs: dict[int, list] = {r: [] for r in range(n_ranks)}
        #: (global rank, comm id) -> main Process inside a collective
        self._in_collective: dict[tuple, object] = {}
        #: comm id -> failed ranks it was revoked over (revoked stays revoked)
        self._revoked: dict[int, tuple] = {}
        self._timebombs: list = []

    # -- plan execution -------------------------------------------------
    def install(self, rank_failures) -> None:
        """Arm the plan's kill specs (called once by the cluster)."""
        for spec in rank_failures:
            if spec.rank >= self.n_ranks:
                # Out-of-range kills for this topology are inert: the
                # plan validated shape, the cluster decides scale.
                continue
            if spec.at_time is not None:
                self._timebombs.append(self.sim.process(
                    self._timebomb(spec), name=f"kill-rank{spec.rank}"))
            else:
                self._send_bombs[spec.rank] = spec
                self._send_counts[spec.rank] = 0

    def _timebomb(self, spec):
        yield self.sim.timeout(spec.at_time)
        if spec.rank not in self.dead:
            self.kill(spec.rank, spec.incarnation)

    # -- liveness -------------------------------------------------------
    def is_dead(self, rank: int) -> bool:
        return rank in self.dead

    def death_event(self, rank: int):
        """The pending event that fires when ``rank`` dies.  Callers
        must treat it as shared — never fail or defuse it."""
        ev = self._death_events.get(rank)
        if ev is None:
            ev = self.sim.event()
            self._death_events[rank] = ev
        return ev

    # -- process registry -----------------------------------------------
    def adopt(self, rank: int, proc) -> None:
        """Register a process as belonging to ``rank`` so a kill can
        interrupt it.  Dead ranks spawn nothing.

        Anything with ``is_alive`` and ``interrupt(cause)`` is accepted:
        an operation that runs without a process (:mod:`repro.mpi.eager`)
        hands in a handle whose ``interrupt`` cancels what it has
        scheduled and fails its request."""
        self._procs.setdefault(rank, []).append(proc)

    def enter_collective(self, rank: int, comm_id: int, proc) -> None:
        self._in_collective[(rank, comm_id)] = proc

    def exit_collective(self, rank: int, comm_id: int) -> None:
        self._in_collective.pop((rank, comm_id), None)

    # -- the kill itself ------------------------------------------------
    def note_send(self, rank: int) -> None:
        """Count one message send by ``rank``; trips an ``after_sends``
        bomb by raising :class:`RankKilled` in the caller's own frame."""
        spec = self._send_bombs.get(rank)
        if spec is None or rank in self.dead:
            return
        self._send_counts[rank] += 1
        if self._send_counts[rank] >= spec.after_sends:
            del self._send_bombs[rank]
            self.kill(rank, spec.incarnation, self_inflicted=True)
            raise RankKilled(rank, spec.incarnation)

    def kill(self, rank: int, incarnation: int = 0,
             self_inflicted: bool = False) -> None:
        """Mark ``rank`` dead now and interrupt everything it runs."""
        if rank in self.dead:
            return
        now = self.sim.now
        self.dead[rank] = (incarnation, now)
        if self.injector is not None:
            self.injector.emit("rank_kill", rank=rank,
                               incarnation=incarnation)
        cause = KillCause(rank, incarnation)
        active = self.sim.active_process
        for proc in self._procs.get(rank, ()):
            if proc.is_alive and proc is not active:
                proc.interrupt(cause)
                if isinstance(proc, Process):
                    # A helper with no try/except dies with the
                    # Interrupt; that is the kill working as intended,
                    # not a stray failure for the simulator to re-raise
                    # at end of run.
                    proc.defuse()
        ev = self._death_events.get(rank)
        if ev is None:
            ev = self.sim.event()
            self._death_events[rank] = ev
        if not ev.triggered:
            ev.succeed(cause)

    # -- revocation -----------------------------------------------------
    def revoke(self, comm_id: int, failed_ranks: tuple) -> None:
        """Revoke communicator ``comm_id``: interrupt every survivor
        still blocked inside a collective on it.  Idempotent."""
        if comm_id in self._revoked:
            return
        self._revoked[comm_id] = tuple(failed_ranks)
        if self.injector is not None:
            self.injector.emit("comm_revoke", comm_id=comm_id,
                               failed=tuple(failed_ranks))
        cause = RevokeCause(failed_ranks, comm_id)
        active = self.sim.active_process
        for (rank, cid), proc in list(self._in_collective.items()):
            if cid != comm_id or rank in self.dead:
                continue
            if proc.is_alive and proc is not active:
                proc.interrupt(cause)

    def is_revoked(self, comm_id: int) -> bool:
        return comm_id in self._revoked

    def revoked_failures(self, comm_id: int) -> tuple:
        return self._revoked.get(comm_id, ())

    def __repr__(self) -> str:
        return (f"<FailStopManager dead={sorted(self.dead)} "
                f"of {self.n_ranks} ranks>")
