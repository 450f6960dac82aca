"""Happens-before engine: vector clocks over span traces + detectors.

The PR 4 sanitizer passes (:mod:`repro.check.sanitize`) validate each
span and each message *in isolation*; nothing validates cross-rank
ordering.  This module rebuilds the partial order a run actually
established — from the same exported traces (Chrome JSON or RPRT, via
:mod:`repro.analysis.traceio`) or a live tracer — and layers race,
nondeterminism, deadlock and typestate detectors on top of it.

The graph
---------

Every span contributes two nodes, ``S`` (start) and ``E`` (end), with
``S -> E``.  Edges come from:

``lane``
    Program order on serial lanes (``stream<k>``/``link:*`` tracks,
    capacity-1 resources): ``E(prev) -> S(next)``.

``tree``
    Span hierarchy: ``S(parent) -> S(child)`` (a child starts inside
    its parent), and ``E(child) -> E(parent)`` for awaited children
    (those that end before the parent does — spawned processes that
    outlive the parent contribute no completion edge).

``rendezvous``
    Per-``seq`` handshake edges: ``sender_prepare -> rts ->
    {receiver_prepare, cts} -> wire_transfer -> receiver_complete``
    (matched by part and attempt,
    :meth:`repro.sim.trace.Message.wire_for`), each retransmission
    after the attempt it repeats, and ``wire -> sender_release``.  The
    wire-to-complete edge is the cross-rank send->recv edge.

``collective``
    Participation barriers: spans of one collective instance — grouped
    by ``(comm, coll_seq, label)`` meta — order ``S(i) -> E(j)`` for
    every member pair of *symmetric* collectives (allreduce, allgather,
    alltoall, barrier): nobody exits before everybody entered.  Rooted
    collectives (bcast, reduce, ...) are ordered by their real
    point-to-point edges instead.

Every edge is **time-guarded**: an edge whose source is later than its
target (beyond ``EPS``) is dropped, so the graph is forward-in-time and
acyclic by construction for any trace the simulator can actually emit.
A cycle therefore *is* a finding (``hb-cycle``), not a crash: the
cyclic nodes are reported and excluded from the clocks.

Reachability uses vector clocks over a greedy chain decomposition
(each node joins a chain ending at one of its direct predecessors):
``a`` happens-before ``b`` iff ``VC[b][chain(a)] > pos(a)``.  That
costs O(nodes x chains) memory — fine for exported traces, which are
per-scenario, not per-campaign.

Detectors (each returns :class:`~repro.check.sanitize.TraceViolation`):

``buffer-race``
    Conflicting accesses (>= 1 write) to one buffer checkout
    (shadow id + pool epoch, from the sanitizer's access log) with no
    happens-before path either way.  Needs a live run: exported traces
    carry no access log.  :meth:`HBChecker.assert_race_free` raises
    :class:`~repro.errors.BufferRaceError`.

``message-race``
    A wildcard-receive match (``wildcard_match`` span) where a
    tag-compatible send from a *different* sender is concurrent with
    the matched send — the classic MPI nondeterminism: a different
    interleaving matches a different message.  Same-sender sends are
    exempt (MPI non-overtaking orders them).

``deadlock-cycle``
    Wait-for graph over blocking handshake states: an ``rts`` with no
    ``cts`` blocks the sender on the receiver; a ``cts`` with no
    ``receiver_complete`` blocks the receiver on the sender.  A cycle
    of ranks explains *why* the engine's empty-queue
    :class:`~repro.errors.DeadlockError` fired.

``wire-typestate``
    WireImage lifecycle: every ``unpack_wire`` names an ``origin_seq``
    some ``pack_wire``/``reduce_wire`` minted, after the mint, at most
    once per consuming rank.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Optional

from repro.check.sanitize import EPS, SERIAL_LANE_PREFIXES, TraceViolation
from repro.errors import BufferRaceError
from repro.sim.trace import Trace, TraceRecord

__all__ = ["HappensBefore", "HBChecker", "SYMMETRIC_COLLECTIVES"]

#: collectives whose semantics are a full participation barrier —
#: nobody returns before everybody entered.  Rooted trees (bcast,
#: reduce, scatter, gather) are ordered by their p2p hops instead.
SYMMETRIC_COLLECTIVES = frozenset(
    {"allreduce", "allgather", "alltoall", "barrier"})

#: wildcard sentinel (mirrors :data:`repro.mpi.matching.ANY` without
#: importing the runtime into the analysis layer)
_ANY = -1


class HappensBefore:
    """Vector-clock happens-before relation over one trace (any source
    :meth:`~repro.sim.trace.Trace.of` accepts)."""

    def __init__(self, source):
        self.trace = Trace.of(source)
        self.records = self.trace.records
        n = 2 * len(self.records)
        self._idx = {r.span_id: i for i, r in enumerate(self.records)}
        self._succs: list[list[int]] = [[] for _ in range(n)]
        self._preds: list[list[int]] = [[] for _ in range(n)]
        self._build_edges()
        self._order, self.cyclic_nodes = self._toposort()
        self._chain: list[int] = [-1] * n
        self._pos: list[int] = [0] * n
        self._clocks: list[Optional[list[int]]] = [None] * n
        self._decompose()

    # -- node helpers --------------------------------------------------------
    def _s(self, rec: TraceRecord) -> int:
        return 2 * self._idx[rec.span_id]

    def _e(self, rec: TraceRecord) -> int:
        return 2 * self._idx[rec.span_id] + 1

    def _ntime(self, node: int) -> float:
        rec = self.records[node // 2]
        return rec.t_start if node % 2 == 0 else rec.t_end

    def node_span(self, node: int) -> TraceRecord:
        return self.records[node // 2]

    # -- construction --------------------------------------------------------
    def _edge(self, u: int, v: int) -> None:
        """Add ``u -> v`` unless it contradicts time (source after
        target): the guard keeps the graph forward-in-time, so bogus
        meta can at worst *lose* an ordering, never invent a cycle."""
        if u == v or self._ntime(u) > self._ntime(v) + EPS:
            return
        self._succs[u].append(v)
        self._preds[v].append(u)

    def _build_edges(self) -> None:
        for rec in self.records:
            self._edge(self._s(rec), self._e(rec))
        self._lane_edges()
        self._tree_edges()
        self._rendezvous_edges()
        self._collective_edges()

    def _lane_edges(self) -> None:
        for (rank, track), spans in self.trace.lanes.items():
            if not track.startswith(SERIAL_LANE_PREFIXES):
                continue
            prev = None
            for rec in spans:
                if prev is not None:
                    self._edge(self._e(prev), self._s(rec))
                prev = rec

    def _tree_edges(self) -> None:
        by_id = self.trace.by_id
        for rec in self.records:
            parent = by_id.get(rec.parent_id)
            if parent is None:
                continue
            self._edge(self._s(parent), self._s(rec))
            # Awaited children complete inside the parent; spawned
            # workers that outlive it fail the time guard and add none.
            self._edge(self._e(rec), self._e(parent))

    def _rendezvous_edges(self) -> None:
        for _seq, msg in sorted(self.trace.messages.items()):

            def firsts(label):
                return msg.steps.get(label, ())

            for prep in firsts("sender_prepare"):
                for rts in firsts("rts"):
                    self._edge(self._e(prep), self._s(rts))
            for rts in firsts("rts"):
                for nxt in ("receiver_prepare", "cts"):
                    for r in firsts(nxt):
                        self._edge(self._e(rts), self._s(r))
            for rprep in firsts("receiver_prepare"):
                for cts in firsts("cts"):
                    self._edge(self._e(rprep), self._s(cts))
            wires = firsts("wire_transfer")
            for cts in firsts("cts"):
                for w in wires:
                    self._edge(self._e(cts), self._s(w))
            # a retransmission is sent after the attempt it repeats
            latest: dict = {}  # part -> its latest attempt so far
            for w in wires:
                part = w.meta.get("part")
                if part in latest:
                    self._edge(self._e(latest[part]), self._s(w))
                latest[part] = w
            for rc in firsts("receiver_complete"):
                w = msg.wire_for(rc)
                if w is not None:
                    self._edge(self._e(w), self._s(rc))
            for rel in firsts("sender_release"):
                for w in wires:
                    self._edge(self._e(w), self._s(rel))

    def _collective_edges(self) -> None:
        # a span with no instance identity joins none: no barrier
        for key, members in sorted(self.trace.collective_instances.items()):
            if key[2] not in SYMMETRIC_COLLECTIVES or len(members) < 2:
                continue
            for a in members:
                for b in members:
                    if a is not b:
                        self._edge(self._s(a), self._e(b))

    # -- order + clocks ------------------------------------------------------
    def _key(self, node: int) -> tuple:
        rec = self.records[node // 2]
        return (self._ntime(node), rec.span_id, node % 2)

    def _toposort(self) -> tuple[list[int], list[int]]:
        n = len(self._succs)
        indeg = [len(p) for p in self._preds]
        heap = [(self._key(v), v) for v in range(n) if indeg[v] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            _, v = heapq.heappop(heap)
            order.append(v)
            for w in self._succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, (self._key(w), w))
        cyclic = sorted(set(range(n)) - set(order))
        return order, cyclic

    def _decompose(self) -> None:
        """Greedy chain decomposition + vector clocks, in topo order."""
        chain_end: list[int] = []  # chain index -> its current last node
        nchains_guess = 0
        for v in self._order:
            placed = False
            for p in self._preds[v]:
                c = self._chain[p]
                if c >= 0 and chain_end[c] == p:
                    self._chain[v] = c
                    self._pos[v] = self._pos[p] + 1
                    chain_end[c] = v
                    placed = True
                    break
            if not placed:
                self._chain[v] = len(chain_end)
                self._pos[v] = 0
                chain_end.append(v)
            nchains_guess = len(chain_end)
        nchains = nchains_guess
        for v in self._order:
            vc = [0] * nchains
            for p in self._preds[v]:
                pv = self._clocks[p]
                if pv is None:
                    continue
                for i in range(len(pv)):
                    if pv[i] > vc[i]:
                        vc[i] = pv[i]
            vc[self._chain[v]] = self._pos[v] + 1
            self._clocks[v] = vc

    # -- queries -------------------------------------------------------------
    def hb_node(self, u: int, v: int) -> bool:
        """Strict happens-before between two graph nodes."""
        if u == v:
            return False
        cv = self._clocks[v]
        cu = self._chain[u]
        if cv is None or cu < 0:
            return False  # cyclic nodes carry no clock: unordered
        return cv[cu] > self._pos[u]

    def hb_span(self, a: int, b: int) -> bool:
        """Span ``a`` completed before span ``b`` started (by span id)."""
        ia, ib = self._idx.get(a), self._idx.get(b)
        if ia is None or ib is None:
            return False
        return self.hb_node(2 * ia + 1, 2 * ib)

    def concurrent_spans(self, a: int, b: int) -> bool:
        return a != b and not self.hb_span(a, b) and not self.hb_span(b, a)

    def cycle_violations(self) -> list[TraceViolation]:
        if not self.cyclic_nodes:
            return []
        spans = sorted({self.node_span(v).span_id for v in self.cyclic_nodes})
        t = min(self._ntime(v) for v in self.cyclic_nodes)
        return [TraceViolation(
            "hb-cycle",
            f"{len(spans)} span(s) form a happens-before cycle — the "
            f"trace's timestamps and protocol meta contradict each other",
            span_ids=tuple(spans), t=t)]


class HBChecker:
    """The four HB detectors over one trace (plus an optional sanitizer
    access log for the buffer-race pass)."""

    def __init__(self, source, access_log=None):
        self.hb = HappensBefore(source)
        self.trace = self.hb.trace
        self.records = self.trace.records
        self.access_log = list(access_log) if access_log else []

    # -- construction --------------------------------------------------------
    @classmethod
    def from_result(cls, result) -> "HBChecker":
        """From a :class:`~repro.mpi.cluster.ClusterResult`: spans from
        the tracer, accesses from the run's sanitizer (if recording)."""
        log = getattr(result.asan, "access_log", None) if result.asan else None
        return cls(result.tracer, access_log=log)

    @classmethod
    def from_trace_file(cls, path) -> "HBChecker":
        """Exported traces carry spans but no sanitizer access log, so
        every detector except ``buffer-race`` applies."""
        from repro.analysis.traceio import load_trace_records

        return cls(load_trace_records(path))

    # -- buffer races --------------------------------------------------------
    def _spans_related(self, a: int, b: int) -> bool:
        """Ancestor-or-equal in the span tree: an access made under an
        enclosing span is program-ordered with the spawn points of work
        nested (or inherited) beneath it.  (Parent *ids* are compared:
        the enclosing span may still be open, hence not in the trace.)"""
        if a == b:
            return True
        for lo, hi in ((a, b), (b, a)):
            rec = self.trace.by_id.get(hi)
            if rec is not None and any(
                    r.parent_id == lo
                    for r in chain((rec,), self.trace.ancestors(rec))):
                return True
        return False

    def _accesses_ordered(self, a, b) -> bool:
        if a.proc == b.proc:
            return True  # same simulated process: program order
        if a.span_id is None or b.span_id is None:
            return False
        if self._spans_related(a.span_id, b.span_id):
            return True
        return (self.hb.hb_span(a.span_id, b.span_id)
                or self.hb.hb_span(b.span_id, a.span_id))

    def check_races(self) -> list[TraceViolation]:
        """Concurrent conflicting accesses to one buffer checkout."""
        if not self.access_log:
            return []
        groups: dict[tuple, list] = {}
        for acc in self.access_log:
            groups.setdefault((acc.shadow_id, acc.epoch), []).append(acc)
        out = []
        reported: set[tuple] = set()
        for (shadow, epoch), accs in sorted(groups.items()):
            accs.sort(key=lambda a: (a.t, a.kind, a.proc))
            for i, a in enumerate(accs):
                for b in accs[i + 1:]:
                    if a.kind != "write" and b.kind != "write":
                        continue
                    if a.lo >= b.hi or b.lo >= a.hi:
                        continue  # disjoint byte ranges
                    if self._accesses_ordered(a, b):
                        continue
                    key = (shadow, epoch, min(a.proc, b.proc),
                           max(a.proc, b.proc))
                    if key in reported:
                        continue
                    reported.add(key)
                    out.append(TraceViolation(
                        "buffer-race",
                        f"unordered conflicting accesses to buffer "
                        f"#{shadow} (epoch {epoch}): {a.describe()} vs "
                        f"{b.describe()} — no happens-before path either "
                        f"way",
                        span_ids=tuple(s for s in (a.span_id, b.span_id)
                                       if s is not None),
                        t=min(a.t, b.t)))
        return out

    def assert_race_free(self) -> None:
        """Raise :class:`~repro.errors.BufferRaceError` on any race."""
        races = self.check_races()
        if races:
            raise BufferRaceError(
                f"{len(races)} unordered conflicting buffer access "
                f"pair(s):\n  " + "\n  ".join(v.describe() for v in races))

    # -- message races -------------------------------------------------------
    def check_message_races(self) -> list[TraceViolation]:
        """Wildcard matches racing against a concurrent rival send."""
        rts_spans = [r for r in self.records
                     if r.category == "pipeline" and r.label == "rts"]
        messages = self.trace.messages
        out = []
        for w in self.records:
            if w.category != "matching" or w.label != "wildcard_match":
                continue
            msg = messages.get(w.meta.get("seq"))
            matched = msg.first("rts") if msg is not None else None
            if matched is None:
                continue  # eager send: no rts span to race against
            posted_tag = w.meta.get("posted_tag", _ANY)
            for rival in rts_spans:
                if rival is matched or rival.rank == matched.rank:
                    continue  # same-sender sends are non-overtaking
                if rival.meta.get("dst") != w.rank:
                    continue
                if posted_tag != _ANY and rival.meta.get("tag") != posted_tag:
                    continue
                if not self.hb.concurrent_spans(matched.span_id,
                                                rival.span_id):
                    continue
                out.append(TraceViolation(
                    "message-race",
                    f"wildcard receive on rank {w.rank} (posted tag "
                    f"{posted_tag}) matched the send from rank "
                    f"{matched.rank} (seq {w.meta.get('seq')}) while a "
                    f"concurrent send from rank {rival.rank} (seq "
                    f"{rival.meta.get('seq')}) also qualified — the "
                    f"match is timing-dependent",
                    span_ids=(w.span_id, matched.span_id, rival.span_id),
                    t=w.t_start))
        return out

    # -- deadlock wait-for cycles --------------------------------------------
    def check_deadlock(self) -> list[TraceViolation]:
        """Explain stalls: cycles in the rank wait-for graph."""
        waits: dict[int, list[tuple]] = {}  # waiter -> [(peer, why, span)]
        for seq, msg in sorted(self.trace.messages.items()):
            rts, cts = msg.first("rts"), msg.first("cts")
            if rts is not None and cts is None \
                    and rts.rank is not None and "dst" in rts.meta:
                waits.setdefault(rts.rank, []).append((
                    rts.meta["dst"],
                    f"seq {seq}: rank {rts.rank} sent rts and blocks on "
                    f"rank {rts.meta['dst']} for cts (no matching recv "
                    f"posted)", rts))
            if cts is not None and "receiver_complete" not in msg.steps \
                    and cts.rank is not None and "dst" in cts.meta:
                waits.setdefault(cts.rank, []).append((
                    cts.meta["dst"],
                    f"seq {seq}: rank {cts.rank} sent cts and blocks on "
                    f"rank {cts.meta['dst']} for the wire transfer",
                    cts))
        # DFS over the rank graph; a back-edge to an in-stack rank is a
        # cycle.  Each cycle reports once, keyed by its rank set.
        graph: dict[int, list[int]] = {
            r: sorted({peer for peer, _, _ in edges})
            for r, edges in waits.items()}
        out = []
        seen_cycles: set[frozenset] = set()
        for start in sorted(graph):
            stack = [(start, [start])]
            visited = set()
            while stack:
                node, path = stack.pop()
                for peer in graph.get(node, ()):
                    if peer in path:
                        cycle = path[path.index(peer):]
                        key = frozenset(cycle)
                        if key in seen_cycles:
                            continue
                        seen_cycles.add(key)
                        hops = cycle + [peer]
                        reasons, span_ids = [], []
                        for a, b in zip(hops, hops[1:]):
                            for p, why, span in waits.get(a, ()):
                                if p == b:
                                    reasons.append(why)
                                    span_ids.append(span.span_id)
                                    break
                        arrows = " -> ".join(str(r) for r in hops)
                        out.append(TraceViolation(
                            "deadlock-cycle",
                            f"ranks wait in a cycle [{arrows}]: "
                            + "; ".join(reasons),
                            span_ids=tuple(span_ids),
                            t=min(self.trace.by_id[s].t_start
                                  for s in span_ids)))
                    elif peer not in visited:
                        visited.add(peer)
                        stack.append((peer, path + [peer]))
        return out

    # -- WireImage typestate -------------------------------------------------
    def check_typestate(self) -> list[TraceViolation]:
        """pack -> relay* -> unpack (at most once per consumer)."""
        out = []
        minters = self.trace.origins
        for origin, spans in sorted(minters.items()):
            if len(spans) > 1:
                out.append(TraceViolation(
                    "wire-typestate",
                    f"origin_seq {origin} minted {len(spans)} times — "
                    f"wire images are sealed exactly once",
                    span_ids=tuple(s.span_id for s in spans),
                    t=spans[0].t_start))
        unpacks: dict[tuple, list[TraceRecord]] = {}
        for r in self.records:
            if r.label != "unpack_wire" or "origin_seq" not in r.meta:
                continue
            origin = r.meta["origin_seq"]
            unpacks.setdefault((r.rank, origin), []).append(r)
            mint = minters.get(origin)
            if not mint:
                out.append(TraceViolation(
                    "wire-typestate",
                    f"unpack_wire span {r.span_id} (rank {r.rank}) "
                    f"consumes origin_seq {origin} that no pack_wire/"
                    f"reduce_wire minted",
                    span_ids=(r.span_id,), t=r.t_start))
            elif r.t_start < mint[0].t_end - EPS:
                out.append(TraceViolation(
                    "wire-typestate",
                    f"unpack_wire span {r.span_id} starts at "
                    f"{r.t_start:.9f}, before its pack (span "
                    f"{mint[0].span_id}) sealed the image at "
                    f"{mint[0].t_end:.9f}",
                    span_ids=(r.span_id, mint[0].span_id), t=r.t_start))
        for (rank, origin), spans in sorted(unpacks.items(),
                                            key=lambda kv: (str(kv[0][0]),
                                                            kv[0][1])):
            if len(spans) > 1:
                out.append(TraceViolation(
                    "wire-typestate",
                    f"rank {rank} unpacked origin_seq {origin} "
                    f"{len(spans)} times — each consumer unpacks exactly "
                    f"once",
                    span_ids=tuple(s.span_id for s in spans),
                    t=spans[0].t_start))
        return out

    def check_all(self) -> list[TraceViolation]:
        """All detectors (plus graph consistency), in a stable order."""
        return (self.hb.cycle_violations() + self.check_races()
                + self.check_message_races() + self.check_deadlock()
                + self.check_typestate())
