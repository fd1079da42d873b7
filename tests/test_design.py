"""Guards on the package source: every function, class, module constant
and module-level import it defines is used by it, every class field it
declares is read by it, and one handler catches its integrity errors."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import yvpoly
from yvpoly import painleve, roots
from yvpoly.intpoly import IntegrityError

SRC = Path(yvpoly.__file__).parent


def _unused(sources: dict) -> list:
    """The top-level functions and classes, methods of top-level classes and
    names assigned at module level in sources ({file name: source}) that no
    name, attribute or import in any of them refers to outside the
    function's or class's own def or the name's own assignment; the fields,
    annotated names in the body of a top-level class, that no attribute
    load in any of them names, so a stored value nothing reads; and the
    names that module-level imports bind and nothing else in their module
    reads. Dunders are exempt, and so are cmd_*, which the CLI finds by
    name, __future__ imports, and imports re-exported through __all__."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = []  # (identifier, file name, line)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ident = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.name if isinstance(node, ast.alias) else None)
            if ident:
                refs.append((ident, name, node.lineno))
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unused = []
    for name, tree in trees.items():
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(m.name, m) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defs += [(t.id, node) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name)]
        for ident_name, node in sorted(defs, key=lambda d: d[1].lineno):
            if (ident_name.startswith("__") and ident_name.endswith("__")
                    or ident_name.startswith("cmd_")):
                continue
            if not any(ident == ident_name and not (
                    where == name and node.lineno <= line <= node.end_lineno)
                    for ident, where, line in refs):
                unused.append(f"{name}:{node.lineno} {ident_name}")
        unused += [f"{name}:{m.lineno} {m.target.id}" for node in tree.body
                   if isinstance(node, ast.ClassDef) for m in node.body
                   if isinstance(m, ast.AnnAssign)
                   and isinstance(m.target, ast.Name)
                   and m.target.id not in loaded]
        exported = [elt.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)
                    for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read and bound not in exported:
                        unused.append(f"{name}:{node.lineno} {bound}")
    return unused


def test_finder_sees_unused_helpers():
    sources = {
        "a.py": "def used():\n    return 1\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "class C:\n    def method(self):\n        return used()\n"
                "    def __repr__(self):\n        return ''\n\n"
                "def cmd_run():\n    pass\n\n"
                "SLACK = 2 ** 16  # read nowhere\n"
                "STEP: float = 2.0 ** -20\n"
                "LIMIT, SPARE = 3, (\n    LIMIT)\n"
                "__all__ = []\n"
                "class Orphan(C):\n    def spawn(self):\n"
                "        return Orphan()\n"
                "class Record:\n    kept: int\n"
                "    dropped: int = 0  # stored, read nowhere\n",
        "b.py": "from a import C, STEP, Record\n\nC().method()\n"
                "Record().kept\nRecord().dropped = 1\n",
        "c.py": "from __future__ import annotations\n"
                "import bisect\n"
                "import os.path\n"
                "import mpmath as mp\n"
                "from typing import Sequence\n"
                "from a import used, C as K\n"
                "from b import STEP\n"
                "__all__ = ['STEP']\n\n"
                "def f(xs: Sequence):\n"
                "    return os.path.join(mp.pi, xs)\n\n"
                "f([])\n",
    }
    # b.py's STEP is imported and never read; it still counts as a use of
    # a.py's STEP
    # Orphan refers to itself only, inside its own def
    # Record's dropped field is stored, never loaded
    assert _unused(sources) == ["a.py:4 recursive", "a.py:16 SLACK",
                                "a.py:18 LIMIT", "a.py:18 SPARE",
                                "a.py:21 Orphan", "a.py:22 spawn",
                                "a.py:26 dropped",
                                "b.py:1 STEP", "c.py:2 bisect",
                                "c.py:6 used", "c.py:6 K"]


def test_every_function_is_used_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert _unused(sources) == []


# -S keeps site and every .pth file out, so that only the package, and
# mpmath where the numeric route asks for it, can be imported
_PATH = os.pathsep.join([str(SRC.parent),
                         str(Path(mpmath.__file__).parents[1])])
_NUMERIC = {"mpmath", "yvpoly.roots"}


def _python_s(code, *args):
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": _PATH}, capture_output=True,
        text=True, check=True).stdout


def test_cli_import_loads_no_introspection_modules():
    # every run pays for `import yvpoly.cli`: neither the introspection
    # modules nor the numeric route's mpmath and root finder
    loaded = _python_s("import sys, yvpoly.cli; print(*sys.modules)").split()
    assert "yvpoly.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize",
                "typing", *_NUMERIC}.intersection(loaded)


# The exact commands and family-deep's library calls at small n, then a
# numeric verify; prints the numeric modules loaded after each part.
_EXACT_THEN_NUMERIC = """
import contextlib, io, sys
from yvpoly import cli, family, painleve, relations, series
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([*argv.split(), "--out", out]) for argv in (
        "gen --n-max 8", "sums --n-max 6", "verify --n-max 6 --mode exact")]
    records = family.generate(8)
    family.valuation_checks(records)
    for r in records:
        for check in (family.check_divisibility, family.mod4_reduction,
                      family.verify_irrationality_premises):
            check(r)
    for n in range(1, 8):
        family.wronskian_check(records, n)
        series.cross_check_series(records, n, M=20)
        for verifier in (relations.verify_theorem, relations.verify_corollary,
                         relations.verify_kudryashov):
            verifier(records, n, mode="exact")
    series.verify_closed_forms(records, 8, symmetry_max_m=9)
    series.verify_difference_relations(records, 8)
    series.verify_remark_polynomiality(records, 12, 8)
    w = painleve.rational_solution(records, 0)
    for n in range(6):
        painleve.pII_residual(w)
        painleve.backlund_next(w, n)
        w = painleve.rational_solution(records, n + 1)
    numeric = {"mpmath", "yvpoly.roots"}
    exact_loaded = sorted(numeric & set(sys.modules))
    codes.append(cli.main(["verify", "--n-max", "3", "--mode", "numeric",
                           "--out", out]))
print(codes, exact_loaded, sorted(numeric & set(sys.modules)))
"""


def test_exact_runs_load_no_numeric_route(tmp_path):
    # gen, sums, verify --mode exact and the exact library calls load
    # neither mpmath nor the root finder; a numeric verify then loads both
    # in the same process, and passes
    last = _python_s(_EXACT_THEN_NUMERIC, str(tmp_path)).splitlines()[-1]
    assert last == f"[0, 0, 0, 0] [] {sorted(_NUMERIC)}"


def test_package_api():
    # RootSet and roots_for_record come from the root finder on first use
    assert len(yvpoly.__all__) == 10
    assert yvpoly.RootSet is roots.RootSet
    assert yvpoly.roots_for_record is roots.roots_for_record
    star = {}
    exec("from yvpoly import *", star)
    assert set(yvpoly.__all__) <= set(star)
    assert all(star[name] is getattr(yvpoly, name) for name in yvpoly.__all__)
    with pytest.raises(AttributeError, match="module 'yvpoly' has no "
                                             "attribute 'no_such_name'"):
        yvpoly.no_such_name


def test_records_are_read_only(records8):
    for obj in (records8[2], roots.roots_for_record(records8[2]),
                painleve.rational_solution(records8, 2)):
        with pytest.raises(AttributeError):
            obj.n = 3
        with pytest.raises(AttributeError):
            del obj.n
        assert obj.n == 2


def _handlers(tree):
    """(innermost enclosing function, names in the clause's type, or None
    for a bare except) per except clause of tree."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                found.append((where, child.type and {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(child.type)
                    if isinstance(n, (ast.Name, ast.Attribute))}))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
    visit(tree, None)
    return found


def test_only_main_catches_integrity_errors():
    # a proven property that fails ends the run with `integrity failure:`
    # and exit 1 (cli.main), never a FAIL report: no other clause names
    # IntegrityError, a subclass of it the package defines, or a base
    modules = [importlib.import_module(f"yvpoly.{path.stem}")
               for path in sorted(SRC.glob("*.py"))]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, IntegrityError)}
    assert {"NonZeroRemainder", "UnexpectedCommonFactor",
            "StructureViolation"} <= {c.__name__ for c in classes}
    names = {c.__name__ for c in classes | set(IntegrityError.__mro__)}
    catching = [(path.name, where)
                for path in sorted(SRC.glob("*.py"))
                for where, caught in _handlers(ast.parse(path.read_text()))
                if caught is None or caught & names]
    assert catching == [("cli.py", "main")]
