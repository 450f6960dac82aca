"""Unit tests for Resource, Store and TokenPool."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Store, TokenPool


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queued == 1


def test_resource_release_admits_next(sim):
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered
    assert res.count == 1


def test_resource_release_without_request_raises(sim):
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_serializes_processes(sim):
    res = Resource(sim, capacity=1)
    spans = []

    def worker(sim, res, label):
        req = res.request()
        yield req
        start = sim.now
        yield sim.timeout(1.0)
        res.release(req)
        spans.append((label, start, sim.now))

    for label in "ab":
        sim.process(worker(sim, res, label))
    sim.run()
    (l1, s1, e1), (l2, s2, e2) = spans
    assert s2 >= e1  # no overlap


def test_resource_fifo_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, label):
        req = res.request()
        yield req
        order.append(label)
        yield sim.timeout(0.1)
        res.release(req)

    for label in "abcd":
        sim.process(worker(sim, res, label))
    sim.run()
    assert order == list("abcd")


# -- Store ----------------------------------------------------------------

def test_store_put_then_get(sim):
    st = Store(sim)
    st.put("x")
    ev = st.get()
    assert ev.triggered and ev.value == "x"


def test_store_get_blocks_until_put(sim):
    st = Store(sim)

    def getter(sim, st):
        item = yield st.get()
        return item

    def putter(sim, st):
        yield sim.timeout(1.0)
        st.put("late")

    p = sim.process(getter(sim, st))
    sim.process(putter(sim, st))
    sim.run()
    assert p.value == "late"


def test_store_fifo(sim):
    st = Store(sim)
    for i in range(5):
        st.put(i)
    got = [st.get().value for _ in range(5)]
    assert got == list(range(5))


def test_store_bounded_put_blocks(sim):
    st = Store(sim, capacity=1)
    ev1 = st.put("a")
    ev2 = st.put("b")
    assert ev1.triggered and not ev2.triggered
    g = st.get()
    assert g.value == "a"
    assert ev2.triggered  # freed slot admits the queued put
    assert st.get().value == "b"


def test_store_try_get(sim):
    st = Store(sim)
    ok, item = st.try_get()
    assert not ok and item is None
    st.put(7)
    ok, item = st.try_get()
    assert ok and item == 7


def test_store_len(sim):
    st = Store(sim)
    assert len(st) == 0
    st.put(1)
    st.put(2)
    assert len(st) == 2


def test_store_bad_capacity(sim):
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_put_wakes_waiting_getter_directly(sim):
    st = Store(sim)
    g = st.get()
    assert not g.triggered
    st.put("direct")
    assert g.triggered and g.value == "direct"
    assert len(st) == 0  # item went straight to the getter


# -- TokenPool ---------------------------------------------------------------

def test_tokenpool_multi_acquire(sim):
    pool = TokenPool(sim, capacity=10)
    a = pool.acquire(6)
    b = pool.acquire(4)
    assert a.triggered and b.triggered
    assert pool.available == 0


def test_tokenpool_blocks_when_insufficient(sim):
    pool = TokenPool(sim, capacity=10)
    pool.acquire(8)
    b = pool.acquire(4)
    assert not b.triggered
    pool.release(8)
    assert b.triggered
    assert pool.available == 6


def test_tokenpool_fifo_no_starvation(sim):
    """A large request at the head blocks later small ones (FIFO)."""
    pool = TokenPool(sim, capacity=10)
    pool.acquire(8)
    big = pool.acquire(10)
    small = pool.acquire(1)
    assert not big.triggered and not small.triggered
    pool.release(8)
    assert big.triggered and not small.triggered
    pool.release(10)
    assert small.triggered


def test_tokenpool_over_release_raises(sim):
    pool = TokenPool(sim, capacity=4)
    with pytest.raises(SimulationError):
        pool.release(1)


def test_tokenpool_acquire_out_of_range(sim):
    pool = TokenPool(sim, capacity=4)
    with pytest.raises(SimulationError):
        pool.acquire(5)
    with pytest.raises(SimulationError):
        pool.acquire(0)


def test_tokenpool_models_concurrent_kernels(sim):
    """Two 40-token kernels on an 80-token device overlap; a third
    queues — the SM-occupancy mechanism behind multi-stream MPC-OPT."""
    pool = TokenPool(sim, capacity=80)
    timeline = []

    def kernel(sim, pool, blocks, dur, label):
        req = pool.acquire(blocks)
        yield req
        t0 = sim.now
        yield sim.timeout(dur)
        pool.release(blocks)
        timeline.append((label, t0, sim.now))

    for i in range(3):
        sim.process(kernel(sim, pool, 40, 1.0, f"k{i}"))
    sim.run()
    by_label = {l: (s, e) for l, s, e in timeline}
    assert by_label["k0"] == (0.0, 1.0)
    assert by_label["k1"] == (0.0, 1.0)
    assert by_label["k2"] == (1.0, 2.0)


def test_try_acquire_takes_a_free_slot_without_an_event(sim):
    res = Resource(sim, capacity=1)
    assert res.try_acquire() and res.count == 1
    assert not res.try_acquire()  # full: the caller falls back to request()
    queued = res.request()
    assert not queued.triggered and res.queued == 1
    res.release()  # a slot taken by try_acquire is freed by a bare release
    assert queued.triggered and res.count == 1
