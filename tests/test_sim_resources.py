"""Unit tests for Resource, the one counted resource: a link's lane, a
stream's in-order slot and a device's SM pool."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.acquire(), res.acquire(), res.acquire()
    assert r1 is None and r2 is None and not r3.triggered
    assert res.available == 0 and res.queued == 1


def test_resource_release_admits_next(sim):
    res = Resource(sim, capacity=1)
    assert res.acquire() is None
    r2 = res.acquire()
    assert not r2.triggered
    res.release()
    assert r2.triggered
    assert res.available == 0 and res.queued == 0


def test_resource_release_without_request_raises(sim):
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def _held(sim, res, dur, n=1):
    """Hold ``n`` tokens for ``dur``; returns when they were granted and
    when they were released (generator subroutine)."""
    req = res.acquire(n)
    if req is not None:
        yield req
    start = sim.now
    yield sim.timeout(dur)
    res.release(n)
    return start, sim.now


def test_resource_serializes_processes(sim):
    res = Resource(sim, capacity=1)
    a, b = (sim.process(_held(sim, res, 1.0)) for _ in "ab")
    sim.run()
    assert a.value == (0.0, 1.0) and b.value == (1.0, 2.0)  # no overlap


def test_resource_fifo_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, label):
        yield from _held(sim, res, 0.1)
        order.append(label)

    for label in "abcd":
        sim.process(worker(sim, res, label))
    sim.run()
    assert order == list("abcd")


# -- several tokens per acquire: the device's SM pool -------------------------

def test_tokenpool_multi_acquire(sim):
    pool = Resource(sim, capacity=10)
    assert pool.acquire(6) is None and pool.acquire(4) is None
    assert pool.available == 0


def test_tokenpool_blocks_when_insufficient(sim):
    pool = Resource(sim, capacity=10)
    pool.acquire(8)
    b = pool.acquire(4)
    assert not b.triggered
    pool.release(8)
    assert b.triggered
    assert pool.available == 6


def test_tokenpool_fifo_no_starvation(sim):
    """A large request at the head blocks later small ones (FIFO), even
    while enough tokens for the small one are free."""
    pool = Resource(sim, capacity=10)
    pool.acquire(8)
    big = pool.acquire(10)
    small = pool.acquire(1)
    assert not big.triggered and not small.triggered
    pool.release(8)
    assert big.triggered and not small.triggered
    pool.release(10)
    assert small.triggered


def test_tokenpool_over_release_raises(sim):
    pool = Resource(sim, capacity=4)
    with pytest.raises(SimulationError):
        pool.release(1)
    pool.acquire(2)
    with pytest.raises(SimulationError):
        pool.release(3)
    with pytest.raises(SimulationError):
        pool.release(0)


def test_tokenpool_rejected_over_release_changes_nothing(sim):
    pool = Resource(sim, capacity=4)
    with pytest.raises(SimulationError):
        pool.release(1)
    assert pool.available == 4
    first, second = pool.acquire(4), pool.acquire(1)
    assert first is None and not second.triggered


def test_tokenpool_acquire_out_of_range(sim):
    pool = Resource(sim, capacity=4)
    with pytest.raises(SimulationError):
        pool.acquire(5)
    with pytest.raises(SimulationError):
        pool.acquire(0)
    assert pool.available == 4 and pool.queued == 0


def test_tokenpool_models_concurrent_kernels(sim):
    """Two 40-token kernels on an 80-token device overlap; a third
    queues — the SM-occupancy mechanism behind multi-stream MPC-OPT."""
    pool = Resource(sim, capacity=80)
    kernels = [sim.process(_held(sim, pool, 1.0, 40)) for _ in range(3)]
    sim.run()
    assert [k.value for k in kernels] == [(0.0, 1.0), (0.0, 1.0), (1.0, 2.0)]


# -- no event when nothing waits; cancel ---------------------------------------

def test_try_acquire_takes_a_free_slot_without_an_event(sim):
    res = Resource(sim, capacity=1)
    assert res.acquire() is None and res.available == 0
    queued = res.acquire()  # full: the request queues
    assert not queued.triggered and res.queued == 1
    res.release()  # a slot taken on the spot is freed by a bare release
    assert queued.triggered and res.available == 0


def test_acquiring_free_tokens_schedules_nothing(sim):
    res = Resource(sim, capacity=4)
    assert res.acquire(3) is None and res.acquire() is None
    assert res.available == 0
    sim.run()
    assert sim.event_count == 0


def test_cancel_withdraws_a_queued_request_and_admits_the_next(sim):
    pool = Resource(sim, capacity=4)
    pool.acquire(2)
    big, small = pool.acquire(4), pool.acquire(2)
    assert not big.triggered and not small.triggered
    pool.cancel(big)  # the head leaves: the request behind it now fits
    assert small.triggered and pool.queued == 0 and pool.available == 0


def test_cancel_returns_the_tokens_of_a_granted_request(sim):
    pool = Resource(sim, capacity=4)
    pool.acquire(4)
    granted, waiting = pool.acquire(3), pool.acquire(2)
    pool.release(4)
    assert granted.triggered and not waiting.triggered
    pool.cancel(granted)  # its owner died holding three tokens
    assert waiting.triggered and pool.available == 2
