"""Collective schedules, checked as data: no communicator, no simulator.

``mpi/collectives.py`` separates *who talks to whom* — pure functions of
``(size, rank, root)`` — from *what travels*.  The first half is tested
here by an abstract executor that runs every rank's step list in
lockstep, the way ``_exchange`` runs it: isend, irecv, wait for the
arrival, wait for the send, then store or reduce.
"""

from collections import Counter

import pytest

from repro.mpi import collectives as coll
from repro.mpi.collectives import (_binomial, _dissemination_steps,
                                   _pairwise_steps, _rdouble_steps,
                                   _ring_schedule, _ring_steps)

SIZES = range(1, 34)
POW2 = (1, 2, 4, 8, 16, 32)


def execute(steps_of, blocks, reduce=False):
    """Run ``steps_of(rank)`` for every rank over ``blocks[rank]``.

    Position ``i`` of every list runs together.  Each send must meet a
    receive with the same tag at the same position of its peer's list —
    which, under the isend/irecv/wait-recv/wait-send order, is what
    rules a deadlock out — and each rank gets exactly one arrival."""
    size = len(blocks)
    scheds = [list(steps_of(rank)) for rank in range(size)]
    assert len({len(s) for s in scheds}) == 1
    for pos in range(len(scheds[0])):
        arrivals = {}
        for rank, sched in enumerate(scheds):
            send_block, dst, _, _, tag = sched[pos]
            assert scheds[dst][pos][3:] == (rank, tag)
            assert dst not in arrivals
            arrivals[dst] = blocks[rank][send_block]
        for rank, sched in enumerate(scheds):
            held, slot = blocks[rank], sched[pos][2]
            held[slot] = held[slot] + arrivals[rank] if reduce else arrivals[rank]
    return scheds


@pytest.mark.parametrize("size", SIZES)
def test_ring_allgather_places_every_block_once(size):
    blocks = [[r if i == r else None for i in range(size)]
              for r in range(size)]
    scheds = execute(lambda r: _ring_steps(size, r, r, 7), blocks)
    assert blocks == [list(range(size))] * size
    for rank, sched in enumerate(scheds):  # each foreign slot written once
        assert sorted(s[2] for s in sched) == \
            [i for i in range(size) if i != rank]


@pytest.mark.parametrize("size", SIZES)
def test_ring_allreduce_counts_every_contribution_once(size):
    blocks = [[Counter({r: 1}) for _ in range(size)] for r in range(size)]
    execute(lambda r: _ring_steps(size, r, r, 8), blocks, reduce=True)
    for rank in range(size):  # the reduce-scatter leaves one finished chunk
        done = [i for i, c in enumerate(blocks[rank]) if len(c) == size]
        assert done == ([(rank + 1) % size] if size > 1 else [0])
    execute(lambda r: _ring_steps(size, r, (r + 1) % size, 9), blocks)
    everyone = Counter(range(size))
    assert all(c == everyone for held in blocks for c in held)


@pytest.mark.parametrize("size", POW2)
def test_recursive_doubling_peers_are_symmetric(size):
    blocks = [[Counter({r: 1})] for r in range(size)]
    scheds = execute(lambda r: _rdouble_steps(size, r), blocks, reduce=True)
    assert blocks == [[Counter(range(size))]] * size
    for rank, sched in enumerate(scheds):
        for pos, (_, dst, _, src, _) in enumerate(sched):
            assert dst == src and scheds[dst][pos][1] == rank


@pytest.mark.parametrize("size", SIZES)
def test_pairwise_alltoall_delivers_every_chunk(size):
    # alltoall packs a step's outgoing block just before the step, so
    # what the slots hold in between is not the schedule's business
    scheds = execute(lambda r: _pairwise_steps(size, r),
                     [[None] * size for _ in range(size)])
    for rank, sched in enumerate(scheds):
        others = [i for i in range(size) if i != rank]
        # the block for ``dst`` goes to ``dst``; the one from ``src``
        # lands in slot ``src``; everyone else is met exactly once
        assert all(s[0] == s[1] and s[2] == s[3] for s in sched)
        assert sorted(s[1] for s in sched) == others
        assert sorted(s[3] for s in sched) == others
    tags = [s[4] for s in scheds[0]]
    assert len(set(tags)) == len(tags)  # steps cannot cross-match


@pytest.mark.parametrize("size", SIZES)
def test_dissemination_barrier_hears_from_everyone(size):
    scheds = execute(lambda r: _dissemination_steps(size, r),
                     [["token", None] for _ in range(size)])
    heard = [{r} for r in range(size)]
    for pos in range(len(scheds[0])):
        heard = [heard[r] | heard[scheds[r][pos][3]] for r in range(size)]
    assert heard == [set(range(size))] * size
    assert all(s[:3:2] == (0, 1) for sched in scheds for s in sched)


@pytest.mark.parametrize("size", SIZES)
def test_binomial_tree_spans_all_ranks(size):
    trees = [_binomial(size, rel) for rel in range(size)]
    assert trees[0][0] is None
    for rel, (parent, children) in enumerate(trees):
        if rel:  # exactly one parent, which lists it back
            assert 0 <= parent < rel and rel in trees[parent][1]
        # bcast forwards to the largest subtree first; reduce combines in
        # the mirror order, smallest (first finished) subtree first
        assert children == sorted(children, reverse=True)
        assert all(rel < child < size for child in children)
    assert sum(len(children) for _, children in trees) == size - 1
    for root in range(size):  # any root is a relabelling: still a tree
        reached, frontier = {root}, [0]
        while frontier:
            rel = frontier.pop()
            for child in trees[rel][1]:
                reached.add((child + root) % size)
                frontier.append(child)
        assert reached == set(range(size))


@pytest.mark.parametrize("size", [1, 2, 33, 63, 64, 65, 130])
def test_ring_schedule_paths_agree(size, monkeypatch):
    """Below ``_RING_VECTOR_MIN`` a Python modulo per step, from it on
    one numpy op: the same walk either way, ints either way."""
    assert coll._RING_VECTOR_MIN == 64
    for start in {0, 1, size // 2, size - 1}:
        want = [(start - s) % size for s in range(size)]
        got = {}
        for name, threshold in (("scalar", size + 1), ("vector", 1)):
            monkeypatch.setattr(coll, "_RING_VECTOR_MIN", threshold)
            got[name] = _ring_schedule(size, start)
            assert all(type(b) is int for b in got[name])
        monkeypatch.undo()
        assert got == {"scalar": want, "vector": want}
        assert _ring_schedule(size, start) == want
