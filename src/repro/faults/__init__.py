"""Deterministic fault injection for the simulated cluster.

The fault plane has two pieces:

* :class:`~repro.faults.plan.FaultPlan` — a frozen, validated
  description of fault rates, link schedules, and the RNG seed;
* :class:`~repro.faults.injector.FaultInjector` — the live decision
  engine a run attaches as ``sim.faults``; instrumented sites in the
  network, GPU, and compression layers consult it at the point of
  action (codec faults: :class:`~repro.core.engine.CompressionEngine`'s
  compress and decode calls on live traffic).

Pass a plan to :meth:`repro.mpi.cluster.Cluster.run(faults=...)
<repro.mpi.cluster.Cluster.run>` to run any workload under faults; the
paired resilience layer (:mod:`repro.mpi.resilience`) recovers from
them.  :func:`repro.faults.chaos.run_chaos` (also the ``python -m repro
chaos`` subcommand) wraps the whole loop into a verified OMB sweep.
"""

from repro.faults.injector import DROPPED, FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["FaultPlan", "FaultInjector", "DROPPED"]
