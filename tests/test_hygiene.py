"""Source hygiene: no module of the package imports a name it never reads.

The repository carries no linter, so this scans each module's syntax tree
with the standard ast module.  A name bound by an import (top-level or
inside a function) must occur somewhere in the module as a loaded name.
__init__.py is exempt: its imports are the package's re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gvh"


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "tau")]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (p.name, line, name)
              for p in modules
              for line, name in _unused_imports(ast.parse(p.read_text()))]
    assert unused == []
