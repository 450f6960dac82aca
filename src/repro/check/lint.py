"""Determinism linter: AST rules against nondeterminism hazards.

The whole reproduction rests on bit-exact determinism — same-seed runs
must export byte-identical traces and ``BENCH_*.json`` snapshots.  The
bug classes that have historically broken that property (a
``PYTHONHASHSEED``-dependent ``hash()`` call survived until PR 3) are
all statically recognizable, so this module walks the package's ASTs
and flags them with stable rule codes:

========  ==============================================================
RPR001    wall-clock reads: ``time.time``/``time.monotonic``/
          ``time.perf_counter`` (and ``_ns`` variants),
          ``datetime.now``/``utcnow``/``today``, ``date.today``
RPR002    unseeded module-level RNG: ``random.<fn>()`` or
          ``np.random.<fn>()`` drawing from global state (seeded
          constructions — ``random.Random(seed)``,
          ``np.random.default_rng(seed)`` — are fine)
RPR003    builtin ``hash()`` — salted per process by PYTHONHASHSEED
RPR004    ``id()`` feeding keys or ordering (dict keys, subscripts,
          ``sorted``/``min``/``max``/``.sort`` arguments) — address
          reuse makes these unstable across runs
RPR005    ``os.environ`` / ``os.getenv`` reads: no run's outcome may
          depend on ambient process state, so there is no gateway
RPR006    iterating a set expression (set literal/comprehension,
          ``set()``/``frozenset()`` call) without ``sorted()`` — the
          iteration order feeds trace/snapshot output nondeterminism
RPR007    ``assert`` used for runtime validation — ``python -O`` strips
          it, so the check silently vanishes in optimized runs; raise a
          :mod:`repro.errors` exception instead (test code is exempt:
          the default lint roots cover ``src/repro`` only)
RPR008    unseeded ``numpy.random`` reached through an import binding
          RPR002's dotted-chain rule cannot see: ``from numpy.random
          import shuffle``, ``from numpy import random [as alias]``,
          ``import numpy.random as alias``
========  ==============================================================

A finding on line *n* is suppressed by a ``# repro: allow-RPRnnn``
pragma on that line (comma-separate several codes).  Every suppression
should say *why* — grep for the pragma to audit the exceptions.

Programmatic API: :func:`lint_source` (one string),
:func:`lint_file`, :func:`lint_paths` (files/directories, ``.py``
only).  ``python -m repro check --lint`` wraps these with text and
``--format json`` output.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["Violation", "lint_source", "lint_file", "lint_paths",
           "RULES", "iter_python_files"]

#: rule code -> one-line description (the linter's public contract)
RULES = {
    "RPR001": "wall-clock read (time.time/monotonic/perf_counter, datetime.now)",
    "RPR002": "unseeded module-level RNG call (random.* / np.random.*)",
    "RPR003": "builtin hash() is salted per process (PYTHONHASHSEED)",
    "RPR004": "id() used in keys/ordering is unstable across runs",
    "RPR005": "os.environ read (no environment reads in src)",
    "RPR006": "unordered set iteration (wrap in sorted())",
    "RPR007": "assert for runtime validation is stripped under -O (raise instead)",
    "RPR008": "unseeded numpy.random call through an import alias",
}

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow-([A-Z0-9,\-]+)")

#: (penultimate, last) dotted components flagged as wall-clock reads
_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

#: random-module attributes that *construct* seeded generators
_SEEDED_RANDOM = {"Random", "SystemRandom"}
_SEEDED_NP_RANDOM = {"default_rng", "Generator", "RandomState", "PCG64",
                     "SeedSequence", "Philox", "MT19937", "BitGenerator"}

#: call names whose arguments establish an ordering
_ORDERING_CALLS = {"sorted", "min", "max", "sort"}


@dataclass(frozen=True)
class Violation:
    """One linter finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


def _dotted(node: ast.AST) -> Optional[tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class _Walker(ast.NodeVisitor):
    """Single-pass visitor that keeps an ancestor stack for the
    context-sensitive rules (RPR004, RPR006)."""

    def __init__(self, path: str):
        self.path = path
        self.violations: list[Violation] = []
        self._stack: list[ast.AST] = []
        #: names bound to unseeded numpy.random *functions* (RPR008)
        self._np_random_funcs: set[str] = set()
        #: names bound to the numpy.random *module* itself (RPR008)
        self._np_random_mods: set[str] = set()

    # generic_visit with ancestry tracking
    def visit(self, node: ast.AST):
        self._stack.append(node)
        try:
            super().visit(node)
        finally:
            self._stack.pop()

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), code, message))

    # -- rules on calls ------------------------------------------------------
    def visit_Call(self, node: ast.Call):
        chain = _dotted(node.func)
        if chain:
            self._check_wall_clock(node, chain)
            self._check_rng(node, chain)
            self._check_environ(node, chain)
        if isinstance(node.func, ast.Name):
            if node.func.id == "hash" and node.args:
                self._flag(node, "RPR003", RULES["RPR003"])
            if node.func.id == "id" and node.args and self._in_ordering_context():
                self._flag(node, "RPR004", RULES["RPR004"])
            if node.func.id in self._np_random_funcs:
                self._flag(node, "RPR008",
                           f"{RULES['RPR008']}: {node.func.id}()")
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if len(chain) >= 2 and chain[-2:] in _WALL_CLOCK:
            self._flag(node, "RPR001",
                       f"{RULES['RPR001']}: {'.'.join(chain)}()")

    def _check_rng(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if len(chain) == 2 and chain[0] in self._np_random_mods:
            # an aliased numpy.random module: RPR008 owns this form
            # (seeded constructions like default_rng() stay clean)
            if chain[1] not in _SEEDED_NP_RANDOM:
                self._flag(node, "RPR008",
                           f"{RULES['RPR008']}: {'.'.join(chain)}()")
        elif (len(chain) == 2 and chain[0] == "random"
                and chain[1] not in _SEEDED_RANDOM):
            self._flag(node, "RPR002",
                       f"{RULES['RPR002']}: {'.'.join(chain)}()")
        elif (len(chain) == 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in _SEEDED_NP_RANDOM):
            self._flag(node, "RPR002",
                       f"{RULES['RPR002']}: {'.'.join(chain)}()")

    def _check_environ(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if chain[:2] == ("os", "getenv"):
            self._flag(node, "RPR005", f"{RULES['RPR005']}: os.getenv()")

    # -- RPR007: assert as runtime validation --------------------------------
    def visit_Assert(self, node: ast.Assert):
        self._flag(node, "RPR007", RULES["RPR007"])
        self.generic_visit(node)

    # -- RPR008: numpy.random via import bindings ----------------------------
    def visit_Import(self, node: ast.Import):
        for alias in node.names:
            if alias.name == "numpy.random" and alias.asname:
                self._np_random_mods.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom):
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _SEEDED_NP_RANDOM:
                    self._np_random_funcs.add(alias.asname or alias.name)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_mods.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute):
        chain = _dotted(node)
        # Flag the outermost attribute chain only, so os.environ.get()
        # reports once rather than per nested Attribute node.
        parent = self._stack[-2] if len(self._stack) > 1 else None
        if (chain and chain[:2] == ("os", "environ")
                and not isinstance(parent, ast.Attribute)):
            self._flag(node, "RPR005", f"{RULES['RPR005']}: os.environ")
        self.generic_visit(node)

    def _in_ordering_context(self) -> bool:
        """True when the current node sits inside a dict key, a
        subscript, or an ordering call's arguments."""
        # stack[-1] is the id() call itself
        for i in range(len(self._stack) - 2, -1, -1):
            anc = self._stack[i]
            child = self._stack[i + 1]
            if isinstance(anc, ast.Subscript) and child is anc.slice:
                return True
            if isinstance(anc, ast.Dict) and child in anc.keys:
                return True
            if isinstance(anc, ast.Call):
                name = None
                if isinstance(anc.func, ast.Name):
                    name = anc.func.id
                elif isinstance(anc.func, ast.Attribute):
                    name = anc.func.attr
                if name in _ORDERING_CALLS and child is not anc.func:
                    return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Module)):
                break
        return False

    # -- RPR006: unordered set iteration ------------------------------------
    def visit_For(self, node: ast.For):
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension):
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def _check_set_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._flag(iter_node, "RPR006", RULES["RPR006"])
        # list(set(...)) / tuple(set(...)) freeze the arbitrary order
        if (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("list", "tuple")
                and iter_node.args and _is_set_expr(iter_node.args[0])):
            self._flag(iter_node, "RPR006", RULES["RPR006"])

    def visit_Assign(self, node: ast.Assign):
        # x = list({...}) bakes an arbitrary order into a value
        if (isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("list", "tuple")
                and node.value.args and _is_set_expr(node.value.args[0])):
            self._flag(node.value, "RPR006", RULES["RPR006"])
        self.generic_visit(node)


def _suppressed_codes(source: str) -> dict[int, set[str]]:
    """line number -> codes allowed on that line by pragmas."""
    out: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(text)
        if m:
            codes = {c.strip().lstrip("-") for c in m.group(1).split(",")}
            out[i] = {c for c in codes if c}
    return out


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one source string; returns unsuppressed violations sorted
    by (line, col, code)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, exc.offset or 0,
                          "RPR000", f"syntax error: {exc.msg}")]
    walker = _Walker(path)
    walker.visit(tree)
    allowed = _suppressed_codes(source)
    out = [v for v in walker.violations
           if v.code not in allowed.get(v.line, ())]
    return sorted(out, key=lambda v: (v.line, v.col, v.code))


def lint_file(path) -> list[Violation]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def iter_python_files(paths: Iterable) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def lint_paths(paths: Iterable) -> list[Violation]:
    """Lint files and/or directories; results sorted by location."""
    out: list[Violation] = []
    for f in iter_python_files(paths):
        out.extend(lint_file(f))
    return sorted(out, key=lambda v: (v.path, v.line, v.col, v.code))
