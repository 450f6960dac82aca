"""The pin harness itself: a moved layer is named by cell and layer, and
a re-capture rewrites only the layers it is given."""

import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

from repro.mpi.cluster import Cluster

from tests import pins

COLLECTIVES = pins.family("collectives")
ROW = "2x1/disabled/"
CELL = ROW + "barrier"


def _one_more_event(comm):
    yield from COLLECTIVES.cells[CELL].fn(comm)
    yield comm.sim.timeout(0)


def _later(scenario):
    """The cell's run, ending a nanosecond later."""
    def observe():
        run = scenario.observe()
        run.elapsed += 1e-9
        return run
    return SimpleNamespace(observe=observe)


@pytest.mark.parametrize("change,layer", [
    (lambda s: dataclasses.replace(s, fn=_one_more_event), "mechanism"),
    (_later, "time"),
], ids=["one-more-event", "shifted-elapsed"])
def test_a_moved_layer_is_named_by_cell_and_layer(change, layer):
    cells = dict(COLLECTIVES.cells, **{CELL: change(COLLECTIVES.cells[CELL])})
    moved = dataclasses.replace(COLLECTIVES, cells=cells).moved(ROW)
    assert moved == {CELL: [layer]}


def _failing(comm):
    yield comm.sim.timeout(0)
    raise RuntimeError(f"rank {comm.rank} failed")


def test_a_raising_run_fails_unless_it_may_raise():
    cluster = Cluster("longhorn", 2, 1)
    with pytest.raises(RuntimeError, match="failed"):
        pins.run(cluster, _failing)
    run = pins.run(cluster, _failing, may_raise=True)
    assert isinstance(run.out, RuntimeError) and run.mechanism() > 0


def test_recapture_rewrites_only_the_layers_it_is_given(tmp_path, monkeypatch,
                                                        capsys):
    clean = COLLECTIVES.load()[CELL]
    one = dataclasses.replace(COLLECTIVES, cells={CELL: COLLECTIVES.cells[CELL]})
    monkeypatch.setattr(pins, "DATA", tmp_path)
    monkeypatch.setattr(pins, "family", lambda name: one)
    one.write({CELL: clean})
    committed = one.path.read_bytes()
    recapture = ["collectives", "--recapture", "mechanism"]

    # only the event count differs: it is rewritten, nothing else is
    one.write({CELL: dict(clean, mechanism=clean["mechanism"] + 1)})
    assert pins.main(recapture) == 0
    assert one.path.read_bytes() == committed

    # a span digest differs too: refused, the file is left as it was
    one.write({CELL: dict(clean, mechanism=0, spans="0" * 16)})
    before = one.path.read_bytes()
    assert pins.main(recapture) == 1
    assert one.path.read_bytes() == before

    # a stored cell the family no longer has: refused and named
    one.path.write_text(json.dumps({CELL: clean, ROW + "gone": clean}))
    before = one.path.read_bytes()
    capsys.readouterr()
    assert pins.main(recapture) == 1
    assert one.path.read_bytes() == before
    assert ROW + "gone: " in capsys.readouterr().out

    # nothing differs: nothing is written
    one.path.write_bytes(committed)
    os.utime(one.path, ns=(0, 0))
    assert pins.main(recapture) == 0
    assert one.path.stat().st_mtime_ns == 0
