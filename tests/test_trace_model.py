"""The trace read model (repro.sim.trace.Trace / Message), on
hand-built records: no simulator runs here."""

from types import SimpleNamespace

from repro.sim.trace import Message, Trace, TraceRecord, Tracer


def _rec(t0, t1, category, label, meta=None, rank=0, track="main",
         span_id=0, parent_id=None):
    return TraceRecord(t0, t1, category, label, meta or {}, rank, track,
                       span_id, parent_id)


def _ids(spans) -> list:
    return [r.span_id for r in spans]


# -- order and sources --------------------------------------------------------

def test_records_are_in_trace_order_and_listed_order_is_kept():
    recs = [_rec(2.0, 3.0, "x", "late", span_id=1),
            _rec(0.0, 9.0, "x", "long", span_id=3),
            _rec(0.0, 1.0, "x", "short", span_id=4),
            _rec(0.0, 1.0, "x", "tie", span_id=2)]
    trace = Trace(recs)
    assert _ids(trace.records) == [2, 4, 3, 1]  # (t_start, t_end, span_id)
    assert _ids(trace.listed) == [1, 3, 4, 2]
    assert _ids(recs) == [1, 3, 4, 2]  # the source list is left alone


def test_of_accepts_a_trace_a_tracer_a_list_and_anything_with_records():
    tracer = Tracer()
    tracer.span(1.0, 2.0, "network", "b")
    tracer.span(0.0, 1.0, "network", "a")
    trace = Trace.of(tracer)
    assert [r.label for r in trace.records] == ["a", "b"]
    assert Trace.of(trace) is trace  # idempotent: the views are kept
    recs = list(tracer.records)
    for source in (recs, iter(recs), SimpleNamespace(records=recs)):
        assert Trace.of(source).records == trace.records


def test_a_trace_is_a_snapshot_of_a_live_tracer():
    tracer = Tracer()
    tracer.span(0.0, 1.0, "network", "a")
    trace = Trace.of(tracer)
    tracer.span(1.0, 2.0, "network", "b")
    assert len(trace.records) == 1 and len(Trace.of(tracer).records) == 2


# -- the span tree ------------------------------------------------------------

def test_dag_accessors():
    """children / roots / descendants / ancestors agree with a
    per-call filter over the records."""
    tr = Tracer()
    a = tr.begin("pipeline", "a", t=0.0)
    b = tr.begin("kernel", "b", t=0.1)
    tr.span(0.2, 0.3, "memory", "leaf")
    tr.end(b, t=0.4)
    tr.end(a, t=0.5)
    tr.span(0.6, 0.7, "network", "root2")

    trace = Trace.of(tr)
    recs = {r.label: r for r in trace.records}
    assert trace.by_id[recs["b"].span_id] is recs["b"]
    index = trace.children
    assert {r.label for r in index[None]} == {"a", "root2"}  # roots key
    assert index[recs["a"].span_id] == [
        r for r in trace.records if r.parent_id == recs["a"].span_id]

    desc = trace.descendants(recs["a"].span_id)
    assert {r.label for r in desc} == {"b", "leaf"}
    assert trace.descendants(recs["leaf"].span_id) == []
    anc = list(trace.ancestors(recs["leaf"]))
    assert [r.label for r in anc] == ["b", "a"]  # innermost first
    assert list(trace.ancestors(recs["root2"])) == []


def test_descendants_come_in_preorder():
    trace = Trace([
        _rec(0.0, 9.0, "x", "root", span_id=1),
        _rec(1.0, 4.0, "x", "first", span_id=2, parent_id=1),
        _rec(5.0, 8.0, "x", "second", span_id=3, parent_id=1),
        _rec(2.0, 3.0, "x", "first.kid", span_id=4, parent_id=2),
        _rec(6.0, 7.0, "x", "second.kid", span_id=5, parent_id=3),
    ])
    assert [r.label for r in trace.descendants(1)] == [
        "first", "first.kid", "second", "second.kid"]


def test_ancestors_stop_at_a_parent_the_trace_does_not_hold():
    # the enclosing span was still open when the trace was taken
    orphan = _rec(1.0, 2.0, "x", "kid", span_id=2, parent_id=99)
    assert list(Trace([orphan]).ancestors(orphan)) == []


# -- lanes --------------------------------------------------------------------

def test_lanes_key_links_without_a_rank_and_no_track_as_main():
    trace = Trace([
        _rec(0.0, 1.0, "network", "m", rank=0, track="link:n0-up", span_id=1),
        _rec(1.0, 2.0, "network", "m", rank=3, track="link:n0-up", span_id=2),
        _rec(0.0, 1.0, "pipeline", "rts", rank=1, track=None, span_id=3),
        _rec(2.0, 3.0, "pipeline", "cts", rank=1, track="main", span_id=4),
        _rec(0.5, 0.7, "kernel", "k", rank=1, track="stream0", span_id=5),
    ])
    assert set(trace.lanes) == {(None, "link:n0-up"), (1, "main"),
                                (1, "stream0")}
    assert _ids(trace.lanes[(None, "link:n0-up")]) == [1, 2]
    assert _ids(trace.lanes[(1, "main")]) == [3, 4]


# -- messages -----------------------------------------------------------------

def test_messages_group_parts_and_attempts_under_one_seq():
    trace = Trace([
        _rec(0.0, 1.0, "pipeline", "rts", {"seq": 5}, span_id=1),
        _rec(2.0, 3.0, "pipeline", "wire_transfer",
             {"seq": 5, "part": 0}, span_id=2),
        _rec(2.0, 4.0, "pipeline", "wire_transfer",
             {"seq": 5, "part": 1}, span_id=3),
        _rec(6.0, 7.0, "pipeline", "wire_transfer",
             {"seq": 5, "part": 1, "attempt": 1}, span_id=4),
        _rec(0.0, 1.0, "pipeline", "rts", {"seq": 6}, span_id=5),
        # a wire image's pack carries an origin_seq, not a seq
        _rec(0.0, 1.0, "pipeline", "pack_wire", {"origin_seq": 5}, span_id=6),
        # same meta key, another category: not a protocol step
        _rec(0.0, 1.0, "matching", "wildcard_match", {"seq": 5}, span_id=7),
    ])
    assert sorted(trace.messages) == [5, 6]
    msg = trace.messages[5]
    assert msg.seq == 5 and _ids(msg.spans) == [1, 2, 3, 4]
    assert _ids(msg.steps["wire_transfer"]) == [2, 3, 4]
    assert msg.first("wire_transfer").span_id == 2
    assert msg.first("cts") is None


def test_wire_for_matches_part_and_attempt():
    def wire(span_id, t1, **meta):
        return _rec(0.0, t1, "pipeline", "wire_transfer", dict(meta, seq=1),
                    span_id=span_id)

    def complete(**meta):
        return _rec(9.0, 9.5, "pipeline", "receiver_complete",
                    dict(meta, seq=1), rank=1, span_id=50)

    wires = [wire(1, 5.0, part=0), wire(2, 3.0, part=1),
             wire(3, 8.0, part=1, attempt=1)]
    msg = Message(1, wires)
    assert msg.wire_for(complete(part=0)).span_id == 1
    assert msg.wire_for(complete(part=1)).span_id == 2
    assert msg.wire_for(complete(part=1, attempt=1)).span_id == 3
    # nothing of that (part, attempt): the earliest-ending transfer
    assert msg.wire_for(complete(part=2)).span_id == 2
    assert msg.wire_for(complete()).span_id == 2
    # an unparted message and its retry
    whole = Message(1, [wire(1, 3.0), wire(2, 7.0, attempt=1)])
    assert whole.wire_for(complete()).span_id == 1
    assert whole.wire_for(complete(attempt=1)).span_id == 2
    assert Message(1, []).wire_for(complete()) is None


# -- collectives, origins ----------------------------------------------------

def test_collective_views():
    def coll(span_id, rank, label, **meta):
        return _rec(float(span_id), span_id + 1.0, "collective", label, meta,
                    rank=rank, span_id=span_id)

    trace = Trace([
        coll(1, 0, "allreduce", comm=7, coll_seq=0),
        coll(2, 1, "allreduce", comm=7, coll_seq=0),
        coll(3, 0, "allreduce", comm=7, coll_seq=1),
        coll(4, 0, "bcast", comm=7, coll_seq=1),  # same seq, another call
        coll(5, 1, "allreduce", comm=7),          # no coll_seq: no instance
        coll(6, None, "barrier", comm=8, coll_seq=0),  # unattributed
        _rec(0.0, 1.0, "pipeline", "allreduce", {"comm": 7, "coll_seq": 0},
             span_id=9),
    ])
    assert _ids(trace.collectives) == [1, 2, 3, 4, 5, 6]
    assert {k: _ids(v) for k, v in trace.rank_collectives.items()} == {
        0: [1, 3, 4], 1: [2, 5]}
    assert {k: _ids(v) for k, v in trace.collective_instances.items()} == {
        (7, 0, "allreduce"): [1, 2], (7, 1, "allreduce"): [3],
        (7, 1, "bcast"): [4], (8, 0, "barrier"): [6]}


def test_origins_list_the_minting_spans():
    trace = Trace([
        _rec(0.0, 1.0, "pipeline", "pack_wire", {"origin_seq": 4}, span_id=1),
        _rec(2.0, 3.0, "pipeline", "reduce_wire", {"origin_seq": 8}, span_id=2),
        _rec(4.0, 5.0, "pipeline", "pack_wire", {"origin_seq": 4}, span_id=3),
        # consumers and relays name an origin without minting it
        _rec(6.0, 7.0, "pipeline", "unpack_wire", {"origin_seq": 4}, span_id=4),
        _rec(6.0, 7.0, "pipeline", "rts", {"seq": 2, "origin_seq": 9},
             span_id=5),
        _rec(8.0, 9.0, "pipeline", "pack_wire", {}, span_id=6),
    ])
    assert {k: _ids(v) for k, v in trace.origins.items()} == {
        4: [1, 3], 8: [2]}
