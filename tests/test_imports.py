"""Every name a library module imports is used in that module.

A plain AST scan, so it needs no linter: a name bound by `import` or
`from ... import` (at any depth) must be read somewhere in the module.
The package's `__init__.py` re-exports names and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treecut"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_finds_unused_names():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "def f():\n    from x import y\n    return np, e\n")
    assert unused_imports(src) == [(1, "os"), (3, "c"), (5, "y")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    dead = unused_imports((SRC / module).read_text())
    assert not dead, "%s imports names it never uses: %s" % (
        module, ", ".join("%s (line %d)" % (n, l) for l, n in dead))
