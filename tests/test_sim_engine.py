"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, AnyOf, Simulator, engine
from repro.sim.engine import Event


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    def proc(sim):
        yield sim.timeout(1.5)
        return "done"

    assert sim.run_process(proc(sim)) == "done"
    assert sim.now == 1.5


def test_timeout_value_passthrough(sim):
    def proc(sim):
        v = yield sim.timeout(0.1, value=42)
        return v

    assert sim.run_process(proc(sim)) == 42


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_zero_delay_timeout_runs(sim):
    def proc(sim):
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_events_ordered_by_time(sim):
    order = []

    def proc(sim, delay, label):
        yield sim.timeout(delay)
        order.append(label)

    sim.process(proc(sim, 3.0, "c"))
    sim.process(proc(sim, 1.0, "a"))
    sim.process(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(sim):
    order = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        order.append(label)

    for label in "abcd":
        sim.process(proc(sim, label))
    sim.run()
    assert order == list("abcd")


def test_run_until_stops_mid_schedule(sim):
    fired = []

    def proc(sim):
        yield sim.timeout(10.0)
        fired.append(True)

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert not fired
    sim.run()
    assert fired


def test_run_until_past_raises(sim):
    def proc(sim):
        yield sim.timeout(2.0)

    sim.process(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_process_waits_on_process(sim):
    def inner(sim):
        yield sim.timeout(2.0)
        return "inner-result"

    def outer(sim):
        val = yield sim.process(inner(sim))
        return val

    assert sim.run_process(outer(sim)) == "inner-result"
    assert sim.now == 2.0


def test_event_succeed_wakes_waiter(sim):
    ev = sim.event()

    def waiter(sim, ev):
        val = yield ev
        return val

    def trigger(sim, ev):
        yield sim.timeout(1.0)
        ev.succeed("payload")

    p = sim.process(waiter(sim, ev))
    sim.process(trigger(sim, ev))
    sim.run()
    assert p.value == "payload"


def test_event_double_succeed_raises(sim):
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process(sim):
    ev = sim.event()

    def waiter(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(waiter(sim, ev))
    ev.fail(ValueError("boom"))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_surfaces(sim):
    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_failed_event_with_no_waiter_raises_at_run_end(sim):
    ev = sim.event()
    ev.fail(RuntimeError("lost failure"))
    with pytest.raises(RuntimeError, match="lost failure"):
        sim.run()


def test_defused_failure_not_reraised(sim):
    ev = sim.event()
    ev.fail(RuntimeError("handled"))
    ev.defuse()
    sim.run()  # no raise


def test_event_value_before_trigger_raises(sim):
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_allof_collects_values(sim):
    def worker(sim, delay, val):
        yield sim.timeout(delay)
        return val

    def main(sim):
        procs = [sim.process(worker(sim, d, d * 10)) for d in (3, 1, 2)]
        results = yield sim.all_of(procs)
        return [results[i] for i in range(3)]

    assert sim.run_process(main(sim)) == [30, 10, 20]
    assert sim.now == 3


def test_anyof_returns_first(sim):
    def worker(sim, delay, val):
        yield sim.timeout(delay)
        return val

    def main(sim):
        procs = [sim.process(worker(sim, d, d) ) for d in (5, 1, 3)]
        results = yield sim.any_of(procs)
        return results

    results = sim.run_process(main(sim))
    assert 1 in results.values()
    assert sim.now <= 5  # remaining procs may still finish after


def test_condition_operators(sim):
    e1, e2 = sim.event(), sim.event()
    both = sim.all_of([e1, e2])
    either = sim.any_of([e1, e2])
    assert isinstance(both, AllOf)
    assert isinstance(either, AnyOf)
    e1.succeed("x")
    e2.succeed("y")
    sim.run()
    assert both.triggered and either.triggered


def test_empty_allof_triggers_immediately(sim):
    cond = sim.all_of([])
    assert cond.triggered


def test_process_yielding_non_event_raises(sim):
    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run()


def test_process_requires_generator(sim):
    with pytest.raises(SimulationError, match="generator"):
        sim.process(lambda: None)


def test_cross_simulator_event_rejected():
    s1, s2 = Simulator(), Simulator()

    def proc(s1, s2):
        yield s2.timeout(1.0)

    s1.process(proc(s1, s2))
    with pytest.raises(SimulationError, match="different Simulator"):
        s1.run()


def test_run_process_deadlock_detection(sim):
    def stuck(sim):
        yield sim.event()  # never triggered

    with pytest.raises(DeadlockError):
        sim.run_process(stuck(sim))


def test_nested_yield_from_subroutines(sim):
    def sub(sim, d):
        yield sim.timeout(d)
        return d * 2

    def main(sim):
        a = yield from sub(sim, 1.0)
        b = yield from sub(sim, 2.0)
        return a + b

    assert sim.run_process(main(sim)) == 6.0
    assert sim.now == 3.0


def test_many_processes_deterministic():
    def worker(sim, i, log):
        yield sim.timeout(i % 7 * 0.1)
        log.append(i)

    logs = []
    for _ in range(2):
        s = Simulator()
        log = []
        for i in range(200):
            s.process(worker(s, i, log))
        s.run()
        logs.append(log)
    assert logs[0] == logs[1]


# -- calendar-scheduler edge cases ------------------------------------------


def test_cancelled_events_skipped_within_batch(sim):
    order = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        order.append(label)

    timers = []

    def canceller(sim):
        # Cancel b and d before their shared t=1.0 bucket drains.
        yield sim.timeout(0.5)
        timers[1].cancel()
        timers[3].cancel()

    def worker(sim, label, timer):
        yield timer
        order.append(label)

    for label in "abcd":
        t = sim.timeout(1.0)
        timers.append(t)
        sim.process(worker(sim, label, t))
    sim.process(canceller(sim))
    sim.run()
    assert order == ["a", "c"]


def test_cancelled_only_bucket_does_not_advance_clock(sim):
    def proc(sim):
        yield sim.timeout(3.0)
        return sim.now

    guard = sim.timeout(5.0)
    p = sim.process(proc(sim))
    guard.cancel()
    sim.run()
    assert p.value == 3.0
    assert sim.now == 3.0  # the cancelled t=5 bucket never ticks the clock


def test_cancel_interleaved_with_same_timestamp_spawns(sim):
    """Events scheduled *into* the batch currently draining still run at
    the same timestamp, after the batch, even when cancellations punch
    holes in the batch mid-sweep."""
    order = []

    def late(sim, label):
        order.append((sim.now, label))
        return
        yield  # pragma: no cover

    t_first = sim.timeout(1.0)   # position 0 of the t=1.0 bucket
    victim = sim.timeout(1.0)    # position 1: cancelled mid-sweep

    def spawner(sim, victim):
        yield t_first
        victim.cancel()
        sim.process(late(sim, "spawned"))
        order.append((sim.now, "spawner"))

    def waiter(sim, victim):
        yield victim
        order.append((sim.now, "victim"))  # pragma: no cover

    sim.process(spawner(sim, victim))
    sim.process(waiter(sim, victim))
    sim.run()
    assert order == [(1.0, "spawner"), (1.0, "spawned")]


def test_anyof_defuses_same_batch_late_failure(sim):
    e1, e2 = sim.event(), sim.event()

    def main(sim):
        res = yield sim.any_of([e1, e2])
        return list(res.values())

    def trigger(sim):
        yield sim.timeout(1.0)
        e1.succeed("winner")
        e2.fail(RuntimeError("late loser"))

    p = sim.process(main(sim))
    sim.process(trigger(sim))
    sim.run()  # the losing failure lands in the same bucket; no re-raise
    assert p.value == ["winner"]


def test_allof_defuses_same_batch_second_failure(sim):
    e1, e2 = sim.event(), sim.event()

    def main(sim):
        try:
            yield sim.all_of([e1, e2])
        except RuntimeError as exc:
            return f"caught {exc}"

    def trigger(sim):
        yield sim.timeout(1.0)
        e1.fail(RuntimeError("first"))
        e2.fail(RuntimeError("second"))

    p = sim.process(main(sim))
    sim.process(trigger(sim))
    sim.run()  # second failure must be defused by the already-failed cond
    assert p.value == "caught first"


def test_process_start_and_call_later_put_no_event_on_the_calendar():
    sim = Simulator()

    def noop(sim):
        return
        yield  # pragma: no cover

    proc = sim.process(noop(sim))
    noted = []
    sim.call_later(1.0, noted.append, "v")
    entries = [e for bucket in sim._buckets.values() for e in bucket]
    assert entries == [(proc._resume, engine._START), (noted.append, "v")]
    assert not any(isinstance(e, Event) for e in entries)
    # the start carries a successful None, as the pooled event did
    assert (engine._START._ok, engine._START._value) == (True, None)
    sim.call_later(0.0, lambda v: None)  # counted like an event
    sim.run(until=0.5)
    assert proc.processed and sim.event_count == 2


def test_step_peek_through_same_time_batch(sim):
    """``run(until=t)`` sweeps the whole batch at ``t`` — what its
    callbacks schedule at ``t`` included — and nothing after it."""
    hits = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        hits.append(label)
        yield sim.timeout(0)  # joins the t=1 batch being swept
        hits.append(label + "'")

    sim.process(proc(sim, "a"))
    sim.process(proc(sim, "b"))

    def late(sim):
        yield sim.timeout(2.0)
        hits.append("late")

    sim.process(late(sim))
    sim.run(until=0.0)  # the init events
    assert hits == [] and sim.now == 0.0 and sim.event_count == 3
    sim.run(until=1.0)
    assert hits == ["a", "b", "a'", "b'"] and sim.now == 1.0
    sim.run(until=1.5)
    assert len(hits) == 4 and sim.now == 1.5
    sim.run()
    assert hits == ["a", "b", "a'", "b'", "late"]
    assert sim.now == 2.0


def _storm(sim, n_procs=1024):
    """Spawn storm: every rank spawns a sleeper, half the sleepers race
    an AnyOf against a shorter timer, and an AnyOf race decides each
    rank's value."""
    values = {}

    def sleeper(sim, i):
        nap = sim.timeout(10.0 + i * 1e-6, "slept")
        if i % 2 == 0:
            return (yield nap)
        woke = yield sim.any_of([nap, sim.timeout((i % 13) * 1e-3, f"hit:{i}")])
        return next(iter(woke.values()))

    def rank(sim, i):
        s = sim.process(sleeper(sim, i))
        yield sim.timeout((i % 13) * 1e-3)
        res = yield sim.any_of([s, sim.timeout(20.0)])
        values[i] = next(iter(res.values()))

    for i in range(n_procs):
        sim.process(rank(sim, i))
    sim.run()
    return values, sim.now


# -- the one run loop counts what it dispatches --------------------------------

def test_storm_same_order_and_count_with_and_without_tracer():
    from repro.sim.trace import Tracer

    s1, s2, s3 = Simulator(), Simulator(), Simulator()
    tracer = Tracer(s3)
    (plain1, now1), (plain2, now2), (traced, now3) = (
        _storm(s1), _storm(s2), _storm(s3))
    # dict order is completion order: the dispatch order of the storm
    assert list(plain1.items()) == list(plain2.items()) == list(traced.items())
    assert now1 == now2 == now3
    assert len(plain1) == 1024
    assert s1.event_count == s2.event_count == s3.event_count > 1024
    assert tracer.event_count == s3.event_count


def _timer(sim, delay, fn):
    """A timer that runs ``fn(event)``: the cancellable kind of entry."""
    ev = sim.timeout(delay)
    ev.add_callback(fn)
    return ev


def test_event_count_skips_cancelled_events(sim):
    fired = []

    def fire(_):
        fired.append(sim.now)

    sim.call_later(1.0, fire)
    _timer(sim, 1.0, fire).cancel()  # mid-batch
    _timer(sim, 1.0, fire)
    _timer(sim, 2.0, fire).cancel()  # a cancelled-only instant
    _timer(sim, 3.0, fire).cancel()  # leading, then a live one
    sim.call_later(3.0, fire)
    _timer(sim, 4.0, fire).cancel()  # a cancelled-only last instant
    sim.run(until=2.5)
    assert (fired, sim.event_count, sim.now) == ([1.0, 1.0], 2, 2.5)
    sim.run()  # the clock never reads 4.0: that instant is dropped unseen
    assert (fired, sim.event_count, sim.now) == ([1.0, 1.0, 3.0], 3, 3.0)


def test_event_count_exact_when_a_callback_raises_mid_batch(sim):
    seen = []

    def boom(_):
        raise RuntimeError("boom")

    sim.call_later(1.0, seen.append)
    _timer(sim, 1.0, seen.append).cancel()
    sim.call_later(1.0, boom)
    _timer(sim, 1.0, seen.append)
    sim.call_later(2.0, seen.append)
    with pytest.raises(RuntimeError):
        sim.run()
    assert (len(seen), sim.event_count) == (1, 2)  # boom was dispatched
    sim.run()  # the schedule resumes behind the event that raised
    assert (len(seen), sim.event_count, sim.now) == (3, 4, 2.0)


def test_step_counts_one_and_tracer_rebases():
    from repro.sim.trace import Tracer

    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.call_later(t, lambda e: None)
    sim.run(until=1.0)
    assert sim.event_count == 1
    tracer = Tracer(sim)  # attached late: counts from here
    sim.run(until=2.0)
    assert (sim.event_count, tracer.event_count) == (2, 1)
    tracer.clear()
    sim.run()
    assert (sim.event_count, tracer.event_count) == (3, 1)
    assert Tracer().event_count == 0  # detached: nothing to count


# -- call_later, delayed spawn, silent finish, cycle-free processes ------------

def test_call_later_runs_callback_with_its_value(sim):
    seen = []
    assert sim.call_later(2.0, lambda v: seen.append((sim.now, v)), "v") is None
    sim.call_later(1.0, lambda v: seen.append((sim.now, v)))
    sim.run()
    assert seen == [(1.0, None), (2.0, "v")]
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, seen.append)


def test_cancelled_timer_callback_never_advances_the_clock(sim):
    fired = []
    _timer(sim, 5.0, fired.append).cancel()
    sim.call_later(1.0, fired.append)
    sim.run()
    assert len(fired) == 1 and sim.now == 1.0


def test_call_later_keeps_insertion_order_within_an_instant(sim):
    order = []

    def proc(sim):
        yield sim.timeout(1.0)
        order.append("timeout")

    sim.call_later(1.0, lambda e: order.append("first"))
    sim.process(proc(sim))  # its timeout is scheduled at t=0, after "first"
    sim.call_later(1.0, lambda e: order.append("second"))
    sim.run()
    assert order == ["first", "second", "timeout"]


def test_process_delay_starts_later_without_extra_events():
    from repro.sim import Tracer

    sim = Simulator()
    tracer = Tracer(sim)
    started = []

    def proc(sim):
        started.append(sim.now)
        yield sim.timeout(1.0)

    sim.process(proc(sim), delay=0.5)
    sim.run()
    assert started == [0.5] and sim.now == 1.5
    # the delayed start and the timeout; the finish has no waiter
    assert tracer.event_count == 2


def test_finished_process_with_no_waiter_schedules_nothing(sim):
    def child(sim):
        yield sim.timeout(1.0)
        return "c"

    def late_waiter(sim, p):
        yield sim.timeout(2.0)
        return (yield p)  # finished long ago: resumes at once

    p = sim.process(child(sim))
    w = sim.process(late_waiter(sim, p))
    sim.run()
    assert p.processed and p.value == "c"
    assert w.value == "c" and sim.now == 2.0


def test_finished_process_with_a_waiter_still_wakes_it(sim):
    def child(sim):
        yield sim.timeout(1.0)
        return 7

    def parent(sim):
        return (yield sim.process(child(sim))) + 1

    assert sim.run_process(parent(sim)) == 8


def test_process_name_parts_are_joined_on_demand(sim):
    def noop(sim):
        return
        yield  # pragma: no cover

    p = sim.process(noop(sim), name=("isend", 3, "->", 4))
    q = sim.process(noop(sim))
    sim.run()
    assert p.name == "isend3->4"
    assert q.name == "noop"  # the generator's name, kept past its release


def test_finished_processes_are_freed_without_the_cycle_collector(monkeypatch):
    """A process used to hold a bound method of itself for life, so only
    the cycle collector could free it.  16 ranks, rendezvous included:
    with the collector off, every process is finalized all the same."""
    import gc

    import numpy as np

    from repro.mpi.cluster import Cluster
    from repro.sim import Process

    made, freed = [], []
    init = Process.__init__

    def tracking(self, *a, **kw):
        init(self, *a, **kw)
        made.append(id(self))

    monkeypatch.setattr(Process, "__init__", tracking)
    monkeypatch.setattr(Process, "__del__", lambda self: freed.append(id(self)),
                        raising=False)

    def fn(comm):
        small = np.full(1024, comm.rank, dtype=np.float32)
        big = np.full(1 << 16, comm.rank, dtype=np.float32)  # rendezvous
        yield from comm.allgather(small)
        yield from comm.allgather(big)

    gc.collect()
    gc.disable()
    try:
        res = Cluster("fat-tree", nodes=4, gpus_per_node=4).run(fn, trace=False)
        del res
        alive = len(made) - len(freed)
    finally:
        gc.enable()
    assert len(made) == 16 + 2 * 240  # ranks + a process per rendezvous side
    assert alive == 0
