"""Source hygiene, checked on each module's syntax tree with the standard
ast module (the repository carries no linter).

- No module imports a name it never reads: a name bound by an import
  (top-level or inside a function) must occur somewhere in the module as a
  loaded name.  The package re-exports nothing, so __init__.py is held to
  this too.
- Only hermite.py imports numpy when it is loaded; every other module
  imports it inside the functions that need it.  bracket, generate,
  normalizer and checkq1 start without numpy (test_layering.py runs them);
  transitivity loads it for its sampled ranks, and verify loads it through
  obstruction.py, which imports hermite.py.
- Only `linalg.Echelon` reads `sparse.sub_scaled`, the elimination step of
  sparse rows, so the engine keeps one elimination.
- No module reads `einsum`: the Hermite quadrature sums are matrix
  products, which run on BLAS.
- `cli.py` never compares `args.target`: what the CLI knows about a phase
  space is its row of the `_TARGETS` table.
- No `tools/bench_*.py` defines `_quartiles`, imports `argparse` or sets a
  `*_NUM_THREADS` variable: the command line, the statistics and the child
  environment are `tools/benchtool.py`'s.
- Only sphere.py and cli.py read `representative` or `harmonic_echelon`:
  the harmonic form of a sphere observable is made only for printing, by
  `SphereElement.__str__` and the report's span bases.
- Every function, class and method in `src/gvh` is read somewhere in
  `src/gvh` outside its own body (a function or class as a bare name or as
  an attribute, a method as an attribute), so `src/` holds only what gvh
  runs; the code a ROADMAP item parks is listed in `_PARKED` with that
  item.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gvh"


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
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = ["%s:%d %s" % (p.name, line, name)
              for p in modules
              for line, name in _unused_imports(ast.parse(p.read_text()))]
    assert unused == []


def _load_time_imports(tree):
    """Top-level names of the modules a tree imports when it is executed:
    the body of the module and of its classes, not of its functions."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_load_time_scan_skips_function_bodies():
    tree = ast.parse("import os.path\nfrom numpy import linalg\n"
                     "def f():\n    import scipy\n"
                     "class C:\n    import json\n"
                     "if True:\n    import re\n")
    assert _load_time_imports(tree) == {"os", "numpy", "json", "re"}


def test_only_hermite_imports_numpy_at_load_time():
    loaders = sorted(p.name for p in SRC.glob("*.py")
                     if "numpy" in _load_time_imports(ast.parse(p.read_text())))
    assert loaders == ["hermite.py"]


def _readers(tree, name):
    """Top-level definitions of a module (or "<module>") that read `name`,
    bare or as an attribute."""
    return {getattr(top, "name", "<module>") for top in tree.body
            for n in ast.walk(top)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)}


def _src_readers(name):
    return {"%s:%s" % (p.name, top) for p in SRC.glob("*.py")
            for top in _readers(ast.parse(p.read_text()), name)}


def test_sub_scaled_scan_finds_every_reader():
    tree = ast.parse("from .sparse import sub_scaled\nfrom . import sparse\n"
                     "def f(r):\n    sub_scaled(r, 1, r)\n"
                     "class C:\n    step = sparse.sub_scaled\n"
                     "def g(r):\n    return r\n")
    assert _readers(tree, "sub_scaled") == {"f", "C"}


def test_only_the_echelon_eliminates():
    assert _src_readers("sub_scaled") == {"linalg.py:Echelon"}


def test_only_the_printer_makes_harmonic_forms():
    # the spin map and the certificates work on normal-form keys
    readers = _src_readers("representative") | _src_readers("harmonic_echelon")
    assert {r.split(":")[0] for r in readers} == {"sphere.py", "cli.py"}


def test_no_module_calls_einsum():
    assert _src_readers("einsum") == set()


def _target_comparisons(tree):
    """Lines that compare `args.target` with anything."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Compare)
                  and any(isinstance(e, ast.Attribute) and e.attr == "target"
                          and isinstance(e.value, ast.Name) and e.value.id == "args"
                          for e in (n.left, *n.comparators)))


def test_target_scan_flags_a_comparison():
    tree = ast.parse("def f(args):\n    if args.target == 'r2n':\n        pass\n"
                     "    return 'torus' != args.target or args.verb == 'x'\n")
    assert _target_comparisons(tree) == [2, 4]


def test_cli_reads_targets_from_the_table():
    assert _target_comparisons(ast.parse((SRC / "cli.py").read_text())) == []


def _own_harness(tree):
    """What a bench script does itself that the shared harness does."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.FunctionDef) and n.name == "_quartiles":
            found.add("defines _quartiles")
        elif isinstance(n, ast.Import) and any(a.name == "argparse" for a in n.names) \
                or isinstance(n, ast.ImportFrom) and n.module == "argparse":
            found.add("imports argparse")
        elif any(isinstance(v, str) and v.endswith("_NUM_THREADS")
                 for v in (getattr(n, "value", None), getattr(n, "arg", None))):
            found.add("sets a *_NUM_THREADS variable")
    return found


def test_harness_scan_finds_each_duplicate():
    tree = ast.parse("import argparse\nimport os\n"
                     "def _quartiles(xs):\n    return xs\n"
                     "env = dict(os.environ, OMP_NUM_THREADS='1')\n"
                     "os.environ['MKL_NUM_THREADS'] = '1'\n")
    assert _own_harness(tree) == {"defines _quartiles", "imports argparse",
                                  "sets a *_NUM_THREADS variable"}
    assert _own_harness(ast.parse("from argparse import ArgumentParser\n")) \
        == {"imports argparse"}


def test_bench_scripts_use_the_shared_harness():
    scripts = sorted((ROOT / "tools").glob("bench_*.py"))
    assert scripts
    own = {"%s: %s" % (p.name, what) for p in scripts
           for what in _own_harness(ast.parse(p.read_text()))}
    assert own == set()


# Definitions no src/ code reads, each kept for the ROADMAP item named.
_PARKED = {
    "radicals.py": "item 7",
    "obstruction.py:cubic_extension_problem": "item 17",
    "obstruction.py:sphere_equivariance_problem": "item 3",
}


def _unread_definitions(trees):
    """`file:name` and `file:Class.method` of every module-level function or
    class and every method, dunders aside, whose name no node of `trees`
    (file name -> module tree) reads outside the definition's own body.

    A function or class is read as a bare name or as an attribute, a method
    only as an attribute, so a local variable does not hide a method of the
    same name.  Reads are matched by name alone: a method that shares its
    name with one that is read (`TorusElement.zero` beside `MultiPoly.zero`)
    is hidden from the scan."""
    defs = []
    for fname, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append(("%s:%s" % (fname, top.name), top, False))
            if isinstance(top, ast.ClassDef):
                defs += [("%s:%s.%s" % (fname, top.name, n.name), n, True)
                         for n in top.body if isinstance(n, ast.FunctionDef)
                         and not (n.name.startswith("__") and n.name.endswith("__"))]

    def reads(root, method):
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(root)
            if isinstance(n, ast.Attribute) or not method
            and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))

    everywhere = {method: sum((reads(tree, method) for tree in trees.values()),
                              collections.Counter()) for method in (False, True)}
    return sorted(label for label, node, method in defs
                  if everywhere[method][node.name] == reads(node, method)[node.name])


def test_unread_scan_flags_each_unread_definition():
    trees = {"a.py": ast.parse("def used():\n    coeff = 1\n    return coeff\n"
                               "def recursive(n):\n    return recursive(n - 1)\n"
                               "class C:\n    def __init__(self):\n        pass\n"
                               "    def method(self):\n        return self.other()\n"
                               "    def other(self):\n        return used()\n"
                               "    def coeff(self):\n        pass\n"
                               "class Unused:\n    def method(self):\n        pass\n"),
             "b.py": ast.parse("from .a import C\nC().method()\n")}
    # Unused.method shares its name with C.method, which b.py reads; the
    # local variable coeff in used() does not read C.coeff
    assert _unread_definitions(trees) == ["a.py:C.coeff", "a.py:Unused",
                                          "a.py:recursive"]


def test_src_defines_only_what_it_reads():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unread = _unread_definitions(trees)
    parked = [next((k for k in (label, label.split(":")[0]) if k in _PARKED), None)
              for label in unread]
    assert [label for label, key in zip(unread, parked) if key is None] == []
    assert set(parked) - {None} == set(_PARKED)  # every entry still parks code
