"""Unit tests for the tracer."""

import pytest

from repro.sim import Simulator, Trace, Tracer


def test_span_recording():
    tr = Tracer()
    tr.span(0.0, 1.0, "network", "msg1", nbytes=100)
    tr.span(2.0, 2.5, "network", "msg2")
    assert tr.breakdown().get("network", 0.0) == pytest.approx(1.5)
    assert tr.records[0].meta["nbytes"] == 100


def test_span_duration_property():
    tr = Tracer()
    tr.span(1.0, 3.5, "k")
    assert tr.records[0].duration == pytest.approx(2.5)


def test_negative_span_rejected():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.span(2.0, 1.0, "x")


def test_total_all_categories():
    tr = Tracer()
    tr.span(0, 1, "a")
    tr.span(0, 2, "b")
    assert sum(tr.breakdown().values()) == pytest.approx(3.0)


def test_busy_merges_overlaps():
    tr = Tracer()
    tr.span(0.0, 2.0, "kernel")
    tr.span(1.0, 3.0, "kernel")  # overlaps
    tr.span(5.0, 6.0, "kernel")  # disjoint
    assert tr.breakdown().get("kernel", 0.0) == pytest.approx(5.0)  # raw sum
    assert tr.busy("kernel") == pytest.approx(4.0)   # merged occupancy


def test_busy_empty_category():
    tr = Tracer()
    assert tr.busy("nothing") == 0.0


def test_breakdown_and_categories():
    tr = Tracer()
    tr.span(0, 1, "b")
    tr.span(0, 2, "a")
    tr.span(2, 3, "a")
    assert sorted(tr.breakdown()) == ["a", "b"]
    assert tr.breakdown() == {"a": pytest.approx(3.0), "b": pytest.approx(1.0)}


def test_clear():
    tr = Tracer()
    tr.span(0, 1, "x")
    tr.clear()
    assert tr.records == [] and tr.event_count == 0


def test_tracer_attaches_to_simulator():
    sim = Simulator()
    tr = Tracer(sim)
    assert sim.tracer is tr

    def proc(sim):
        yield sim.timeout(1.0)

    sim.run_process(proc(sim))
    assert tr.event_count > 0


# -- hierarchical spans -------------------------------------------------------

def test_begin_end_explicit_times():
    tr = Tracer()
    h = tr.begin("pipeline", "rts", rank=2, track="main", t=1.0, seq=5)
    tr.end(h, t=2.5, dst=1)
    rec = tr.records[-1]
    assert rec.duration == pytest.approx(1.5)
    assert rec.rank == 2 and rec.track == "main"
    assert rec.meta == {"seq": 5, "dst": 1}
    assert rec.parent_id is None
    assert tr.records == [rec]


def test_end_none_is_noop():
    tr = Tracer()
    assert tr.end(None) is None
    assert tr.records == []


def test_end_twice_raises():
    tr = Tracer()
    h = tr.begin("x", t=0.0)
    tr.end(h, t=1.0)
    with pytest.raises(ValueError):
        tr.end(h, t=2.0)


def test_end_before_start_raises():
    tr = Tracer()
    h = tr.begin("x", t=5.0)
    with pytest.raises(ValueError):
        tr.end(h, t=4.0)


def test_detached_tracer_needs_explicit_time():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.begin("x")


def test_retroactive_span_nests_under_open():
    tr = Tracer()
    outer = tr.begin("pipeline", "sender_prepare", t=0.0)
    tr.span(0.2, 0.5, "kernel", "mpc")
    leaf = tr.records[-1]
    inner = tr.begin("pipeline", "inner", t=0.6)
    tr.span(0.7, 0.8, "kernel", "mpc2")
    leaf2 = tr.records[-1]
    tr.end(inner, t=0.9)
    tr.end(outer, t=1.0)
    assert leaf.parent_id == outer.span_id
    assert leaf2.parent_id == inner.span_id
    trace = Trace.of(tr)
    assert trace.by_id[inner.span_id].parent_id == outer.span_id
    assert {r.span_id for r in trace.children[outer.span_id]} == {
        leaf.span_id, inner.span_id}


def test_spans_parent_within_sim_processes():
    """Spans recorded by different processes don't nest into each
    other; a process spawned under an open span inherits it."""
    sim = Simulator()
    tr = Tracer(sim)
    got = {}

    def child(sim):
        yield sim.timeout(0.5)
        tr.span(sim.now - 0.1, sim.now, "kernel", "k")
        got["child_leaf"] = tr.records[-1]

    def parent(sim):
        with tr.begin("pipeline", "outer", rank=0) as h:
            got["outer"] = h
            sim.process(child(sim))
            yield sim.timeout(2.0)

    def bystander(sim):
        yield sim.timeout(1.0)
        tr.span(sim.now - 0.1, sim.now, "kernel", "other")
        got["stranger"] = tr.records[-1]

    sim.process(parent(sim))
    sim.process(bystander(sim))
    sim.run()
    assert got["child_leaf"].parent_id == got["outer"].span_id
    assert got["stranger"].parent_id is None


def test_clear_resets_hierarchy_and_metrics():
    tr = Tracer()
    tr.begin("x", t=0.0)
    tr.metrics.inc("wire.bytes", 10, link="l")
    tr.clear()
    assert tr.records == []
    assert tr.current_span() is None
    assert tr.metrics.counter_total("wire.bytes") == 0


def test_span_explicit_parent_outside_any_process():
    sim = Simulator()
    tr = Tracer(sim)
    outer = tr.begin("app", "outer")
    brief = tr.begin("app", "brief")
    tr.end(brief)
    tr.span(0.0, 0.0, "network", "a", parent=outer)
    tr.span(0.0, 0.0, "network", "b", parent=brief)  # closed by now
    tr.span(0.0, 0.0, "network", "c", parent=None)
    a, b, c = tr.records[-3:]
    assert (a.parent_id, b.parent_id, c.parent_id) == (outer.span_id, None, None)


def test_reparent_overrides_the_spawners_open_span():
    sim = Simulator()
    tr = Tracer(sim)
    receiver_side = tr.begin("collective", "allgather", rank=1)

    def rendezvous(sim):
        yield sim.timeout(1.0)
        tr.span(sim.now, sim.now, "pipeline", "cts", rank=1)

    def sender(sim):
        with tr.begin("pipeline", "rts", rank=0):
            proc = sim.process(rendezvous(sim))  # would inherit "rts"
            tr.reparent(proc, receiver_side)
            yield sim.timeout(2.0)

    sim.process(sender(sim))
    sim.run()
    cts = next(r for r in tr.records if r.label == "cts")
    assert cts.parent_id == receiver_side.span_id
