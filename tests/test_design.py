"""Guards on the package source: every function and module constant it
defines is used by it."""

import ast
from pathlib import Path

import yvpoly

SRC = Path(yvpoly.__file__).parent


def _unused(sources: dict) -> list:
    """The top-level functions, methods of top-level classes and names
    assigned at module level in sources ({file name: source}) that no name,
    attribute or import in any of them refers to outside the function's own
    def or the name's own assignment. Dunders are exempt, and so is cmd_*,
    which the CLI finds by name."""
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
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
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
                "__all__ = []\n",
        "b.py": "from a import C, STEP\n\nC().method()\n",
    }
    assert _unused(sources) == ["a.py:4 recursive", "a.py:16 SLACK",
                                "a.py:18 LIMIT", "a.py:18 SPARE"]


def test_every_function_is_used_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert _unused(sources) == []
