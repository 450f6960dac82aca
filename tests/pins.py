"""One harness for the pin families.

A pin family (:class:`Family`) is a table of cells, each a
:class:`Scenario` to run, a :class:`Recorded` trace to read or a
:class:`Tables` case that builds its own tracers, and the layers it
pins.  A cell is observed once and digested per layer, one
canonical form per layer (the methods of :class:`Run`; docs/performance.md,
"Pins", says what each covers).  The digests live in
``tests/data/pins/<family>.json``, one line per cell, so a re-capture
diff reads cell by cell::

    python -m tests.pins collectives                        # name what moved
    python -m tests.pins collectives --recapture mechanism  # rewrite one layer

``--recapture`` writes nothing and exits 1 when a layer it was not
given moved too, or a stored cell is no longer in the family.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional
from unittest import mock

import numpy as np

from repro.analysis import CommProfile, CritPathAnalyzer
from repro.analysis.export import write_chrome_trace
from repro.analysis.rprt import write_trace_rprt
from repro.analysis.traceio import convert, load_trace_records
from repro.check.hb import HBChecker
from repro.check.sanitize import TraceSanitizer
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.mpi import cluster as cluster_mod
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.sim import Tracer
from repro.sim.trace import SPAN_COLUMNS
from repro.utils.integrity import payload_crc32
from repro.utils.units import KiB, MiB

DATA = Path(__file__).parent / "data" / "pins"

LAYERS = ("result", "time", "spans", "metrics", "mechanism",
          "faults", "exports", "reports", "tables")
BASE = LAYERS[:5]

#: family name -> the test module that defines its ``FAMILY``
FAMILIES = {"collectives": "tests.test_collective_pins",
            "dataplane": "tests.test_dataplane_passes",
            "eager": "tests.test_eager_path",
            "rendezvous": "tests.test_rendezvous_path",
            "telemetry": "tests.test_telemetry_columns",
            "trace-model": "tests.test_trace_model_pins"}


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()[:16]


def pt2pt(comm):
    """Three rendezvous messages one way, one back; the CRC of what each
    receive was handed."""
    sizes = (256 * KiB, 1 * MiB, 512 * KiB)
    got = []
    if comm.rank == 0:
        for i, n in enumerate(sizes):
            yield from comm.send(make_payload("wave", n, seed=i), 1, tag=i)
        got.append((yield from comm.recv(1, tag=9)))
    else:
        for i in range(len(sizes)):
            got.append((yield from comm.recv(0, tag=i)))
        yield from comm.send(make_payload("wave", 1 * MiB, seed=7), 0, tag=9)
    return [payload_crc32(g) for g in got]


def _feed(h, value) -> None:
    """Hash a return value: arrays and numbers by dtype, shape and bytes,
    anything else by ``repr``."""
    if isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for v in value:
            _feed(h, v)
    elif value is None:
        h.update(b"N")
    elif isinstance(value, (np.ndarray, np.generic, int, float, bool)):
        arr = np.asarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr))
    else:
        h.update(repr(value).encode())


def _report(records, analyzer, profile, path=None) -> tuple:
    """What the trace-reading passes make of one source: ``records`` in
    hand, or the trace file at ``path``."""
    def segments(p):
        return tuple((s.t_start, s.t_end, s.kind, s.span.span_id, s.step)
                     for s in p.segments)

    if path is None:
        checks = TraceSanitizer(records), HBChecker(records)
    else:
        checks = TraceSanitizer.from_trace_file(path), HBChecker.from_trace_file(path)
    findings = [v.as_dict() for check in checks for v in check.check_all()]
    paths = ([(m.seq, m.src, m.dst, m.nbytes, m.wire_nbytes, m.t_start,
               m.t_end, segments(m)) for m in analyzer.messages()],
             [(c.label, c.rank, c.t_start, c.t_end, segments(c))
              for c in analyzer.collectives()])
    return (json.dumps(findings, sort_keys=True), paths,
            (analyzer.explain(), analyzer.aggregate_attribution()),
            json.dumps(profile.as_dict(), sort_keys=True))


def _report_of_file(path) -> tuple:
    return _report(None, CritPathAnalyzer(load_trace_records(path)),
                   CommProfile.from_trace_file(path), path)


class _KeptTracer(Tracer):
    """The tracer of the run in progress, reachable after a run that
    raised (``Cluster.run`` returns nothing then)."""

    last = None

    def __init__(self, sim=None):
        super().__init__(sim)
        _KeptTracer.last = self


@dataclass
class Run:
    """One run: what it returned (a ``ClusterResult``) or raised, its
    tracer and the simulated time it ended at.  Each layer method
    returns the layer's digest, ``None`` where the run has none."""

    out: object
    tracer: Tracer
    elapsed: float
    #: ``write_trace_rprt`` keywords of the exports layer
    rprt: dict = field(default_factory=dict)

    def result(self) -> str:
        h = hashlib.sha256()
        if isinstance(self.out, Exception):
            h.update(f"{type(self.out).__name__}: {self.out}".encode())
        else:
            _feed(h, self.out.values)
        return h.hexdigest()[:16]

    def time(self) -> float:
        return self.elapsed

    def spans(self) -> str:
        return _sha("".join(
            repr((r.span_id, r.parent_id, r.t_start, r.t_end, r.category,
                  r.label, r.rank, r.track,
                  [(k, repr(v)) for k, v in r.meta.items()]))
            for r in self.tracer.records))

    def metrics(self) -> str:
        return _sha(json.dumps(self.tracer.metrics.as_dict(), sort_keys=True))

    def mechanism(self) -> int:
        return self.tracer.event_count

    def faults(self) -> Optional[str]:
        injector = self.tracer._sim.faults
        if injector is None:
            return None
        return _sha(repr(injector._rng.bit_generator.state))

    def exports(self) -> str:
        """Writing the RPRT stamps ``telemetry.*`` series on the
        registry, so this layer comes after ``metrics``."""
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            write_chrome_trace(self.tracer, tmp / "t.json", elapsed=self.elapsed)
            write_trace_rprt(self.tracer, tmp / "t.rprt", elapsed=self.elapsed,
                             **self.rprt)
            convert(tmp / "t.json", tmp / "c.rprt")
            convert(tmp / "t.rprt", tmp / "c.json")
            return _sha(b"".join(
                hashlib.sha256((tmp / name).read_bytes()).digest()
                for name in ("t.json", "t.rprt", "c.rprt", "c.json")))

    def reports(self) -> str:
        live = _report(list(self.tracer.records), CritPathAnalyzer(self.tracer),
                       CommProfile.from_result(self.out))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.rprt"
            write_trace_rprt(self.tracer, path, elapsed=self.elapsed)
            return _sha(repr((live, _report_of_file(path))))


def run(cluster: Cluster, fn: Callable, *, may_raise: bool = False,
        **kw) -> Run:
    """Run ``fn`` on ``cluster`` from a cold codec cache.  A run that
    raises re-raises, unless ``may_raise``: then it is a :class:`Run`
    too, its ``out`` the exception."""
    GLOBAL_CODEC_CACHE.clear()
    _KeptTracer.last = None
    with mock.patch.object(cluster_mod, "Tracer", _KeptTracer):
        try:
            out = cluster.run(fn, **kw)
        except Exception as exc:
            if not may_raise or _KeptTracer.last is None:
                raise
            out = exc
    tracer = _KeptTracer.last
    if tracer is None:
        raise RuntimeError("the run built no tracer")
    return Run(out, tracer, tracer._sim.now)


@dataclass(frozen=True)
class Scenario:
    """A cell that runs: a cluster shape, a config, a fault plan and a
    rank function."""

    fn: Callable
    config: CompressionConfig
    shape: tuple = ("longhorn", 2, 1)
    faults: Optional[FaultPlan] = None
    #: ``write_trace_rprt`` keywords of the exports layer, as items
    rprt: tuple = ()
    #: a raised exception is the cell's result, not a failure
    may_raise: bool = False

    def observe(self) -> Run:
        got = run(Cluster(*self.shape), self.fn, config=self.config,
                  faults=self.faults, may_raise=self.may_raise)
        got.rprt = dict(self.rprt)
        return got


@dataclass(frozen=True)
class Recorded:
    """A cell that is a trace already, a file or a function returning a
    record list: it has the ``reports`` layer only."""

    source: object

    def observe(self) -> Recorded:
        return self

    def reports(self) -> str:
        if not callable(self.source):
            return _sha(repr((_report_of_file(self.source),)))
        records = self.source()
        return _sha(repr((_report(
            records, CritPathAnalyzer(SimpleNamespace(records=records)),
            CommProfile.from_records(records, elapsed=0.0)),)))


def table_digest(tracer, elapsed) -> str:
    """The ``tables`` form of one tracer: its span columns, string
    table, metas (with their value types), metrics and ``.rprt`` bytes
    (writing the file stamps the ``telemetry.*`` metrics, so they are
    read first)."""
    h = hashlib.sha256()
    cols = tracer.columns
    for name in SPAN_COLUMNS:
        h.update(getattr(cols, name).tobytes())
    h.update(repr(cols.strings).encode())
    h.update(repr([[(k, type(v).__name__, repr(v)) for k, v in m.items()]
                   for m in cols.metas]).encode())
    h.update(json.dumps(tracer.metrics.as_dict(), sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.rprt"
        write_trace_rprt(tracer, path, elapsed=elapsed)
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Tables:
    """A cell that builds its own tracers: ``build`` runs from a cold
    codec cache and returns ``(tracer, elapsed)`` pairs.  It has the
    ``tables`` layer only, one :func:`table_digest` per tracer."""

    build: Callable

    def observe(self) -> Tables:
        return self

    def tables(self) -> list:
        GLOBAL_CODEC_CACHE.clear()
        return [table_digest(tracer, elapsed) for tracer, elapsed in self.build()]


def digests(obs, layers=BASE) -> dict:
    """``layer -> digest`` of one observation, for the layers it has."""
    out = {layer: getattr(obs, layer, lambda: None)() for layer in layers}
    return {layer: d for layer, d in out.items() if d is not None}


@dataclass
class Family:
    """A pin family: its cells, in order, and the layers it pins."""

    name: str
    cells: dict
    layers: tuple = BASE

    @property
    def path(self) -> Path:
        return DATA / f"{self.name}.json"

    def load(self) -> dict:
        return json.loads(self.path.read_text()) if self.path.exists() else {}

    def write(self, table: dict) -> None:
        lines = [f"{json.dumps(cell)}: {json.dumps(table[cell])}"
                 for cell in self.cells if cell in table]
        self.path.write_text("{\n" + ",\n".join(lines) + "\n}\n")

    def _compare(self, names, table: dict) -> tuple:
        """``(observed, moved)`` for the cells named: a cell's id, or a
        prefix ending in ``/`` for every cell under it.  No name is every
        cell, and every stored cell the family no longer has, which moved
        in every layer."""
        cells = [c for c in self.cells if not names or any(
            c == n or (n.endswith("/") and c.startswith(n)) for n in names)]
        if not cells:
            raise ValueError(f"no {self.name} cell matches {' '.join(names)}")
        observed = {cell: digests(self.cells[cell].observe(), self.layers)
                    for cell in cells}
        if not names:
            observed.update({c: {} for c in table if c not in self.cells})
        moved = {cell: [layer for layer in LAYERS
                        if got.get(layer) != table.get(cell, {}).get(layer)]
                 for cell, got in observed.items()}
        return observed, {cell: ls for cell, ls in moved.items() if ls}

    def moved(self, *names) -> dict:
        """``cell -> the layers that differ from the stored digests``."""
        return self._compare(names, self.load())[1]

    def recapture(self, layers) -> tuple:
        """Rewrite ``layers`` of every cell where they moved.  Returns
        ``(moved, refused)``: every cell that moved with its layers, and
        ``cell -> the other layers that moved``.  Nothing is written
        unless ``refused`` is empty."""
        table = self.load()
        observed, moved = self._compare((), table)
        refused = {cell: [layer for layer in ls if layer not in layers]
                   for cell, ls in moved.items()}
        refused = {cell: ls for cell, ls in refused.items() if ls}
        if moved and not refused:
            self.write({**table, **observed})
        return moved, refused


def family(name: str) -> Family:
    return importlib.import_module(FAMILIES[name]).FAMILY


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.pins",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("family", choices=sorted(FAMILIES))
    ap.add_argument("--recapture", metavar="LAYER[,LAYER]",
                    help="rewrite these layers where they moved; refuse "
                         "(write nothing, exit 1) if any other layer moved")
    args = ap.parse_args(argv)
    fam = family(args.family)
    layers = args.recapture.split(",") if args.recapture else []
    if set(layers) - set(fam.layers):
        ap.error(f"{args.family} pins {', '.join(fam.layers)}")
    if layers:
        moved, refused = fam.recapture(layers)
    else:
        moved, refused = fam.moved(), {}
    for cell, ls in moved.items():
        print(f"{cell}: {', '.join(ls)}")
    if refused:
        others = sorted({layer for ls in refused.values() for layer in ls})
        print(f"{fam.path.name} not written: {', '.join(others)} moved too")
        return 1
    print(f"{args.family}: {len(moved)} cell(s) "
          f"{'re-captured' if layers else 'moved'}")
    return 1 if moved and not layers else 0


if __name__ == "__main__":
    sys.exit(main())
