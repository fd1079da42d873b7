"""Guards on the package source: every function it defines is used by it."""

import ast
from pathlib import Path

import yvpoly

SRC = Path(yvpoly.__file__).parent


def _unused(sources: dict) -> list:
    """The top-level functions and methods of top-level classes in sources
    ({file name: source}) that no name, attribute or import in any of them
    refers to outside the function's own def. Dunders are exempt, and so is
    cmd_*, which the CLI finds by name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = []  # (identifier, file name, line)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ident = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.name if isinstance(node, ast.alias) else None)
            if ident:
                refs.append((ident, name, node.lineno))
    unused = []
    for name, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [m for m in cls.body if isinstance(m, ast.FunctionDef)]
        for fn in defs:
            if (fn.name.startswith("__") and fn.name.endswith("__")
                    or fn.name.startswith("cmd_")):
                continue
            if not any(ident == fn.name and not (
                    where == name and fn.lineno <= line <= fn.end_lineno)
                    for ident, where, line in refs):
                unused.append(f"{name}:{fn.lineno} {fn.name}")
    return unused


def test_finder_sees_unused_helpers():
    sources = {
        "a.py": "def used():\n    return 1\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "class C:\n    def method(self):\n        return used()\n"
                "    def __repr__(self):\n        return ''\n\n"
                "def cmd_run():\n    pass\n",
        "b.py": "from a import C\n\nC().method()\n",
    }
    assert _unused(sources) == ["a.py:4 recursive"]


def test_every_function_is_used_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert _unused(sources) == []
