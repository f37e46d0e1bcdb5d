"""Span tracer that wraps gvh's public functions from outside the package.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces each
listed function or method with a wrapper that records one span (name, start,
end, parent) per call.  A module-level function is replaced in every ``gvh``
module namespace that bound it, so names imported with ``from .linalg import
solve_affine`` are traced too.

Spans are kept in flat arrays in memory; :func:`self_times` turns them into
self time (a span's duration minus the part its children cover) once the
traced call has returned.  Groups marked ``nested=False`` count only their
outermost call: ``Scalar.__sub__`` calls ``__add__`` and ``poly_gcd`` recurses
through its module-global name, so counting every inner call would count one
user-visible operation several times.  Inner calls of such a group run
unwrapped, so the group's self time still excludes its traced children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, group, nested).  The group is the per-layer metric
# prefix; an attribute "Class.method" names a method.
TARGETS = [
    *[("gvh.scalars", "Scalar." + m, "scalars.ops", False)
      for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__pow__", "inverse")],
    ("gvh.scalars", "poly_gcd", "scalars.gcd", False),
    ("gvh.weyl", "weyl_product", "weyl.product", True),
    ("gvh.diffop", "diffop_compose", "diffop.compose", True),
    *[("gvh.radicals", "Radical." + m, "radicals.ops", False)
      for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "inv")],
    ("gvh.matrices", "ExactMatrix.__mul__", "matrices.mul", True),
    ("gvh.linalg", "solve_affine", "linalg.solve", True),
    ("gvh.linalg", "rref", "linalg.rref", True),
    ("gvh.hermite", "hermite_matrix", "hermite.matrix", True),
    ("gvh.hermite", "commutant_kernel_dim", "hermite.commutant", True),
    ("gvh.qmaps", "check_q1", "qmaps.check_q1", True),
    ("gvh.obstruction", "extension_solve", "obstruction.solve", True),
    *[("gvh.obstruction", f, "obstruction.cert", True)
      for f in ("anticommutator_certificate", "groenewold_certificate",
                "position_nonextension_certificate", "sphere_certificate",
                "torus_transform_identities", "torus_irreducibility")],
    ("gvh.obstruction", "vonneumann_rules_flat", "obstruction.rules", True),
    *[("gvh.subspace", f, "subspace", True)
      for f in ("generate_poisson_subalgebra", "normalizer",
                "transitivity_check", "SubspaceBasis.from_elements")],
    ("gvh.parse", "parse_expression", "parse", True),
    ("gvh.parse", "print_expression", "parse", True),
    # Traced only so that the classical bracket work is not counted as CLI
    # glue.  Quantization maps built at import keep the unwrapped bracket, so
    # that part stays in qmaps.check_q1's self time.
    ("gvh.flat", "bracket_flat", "brackets", True),
    ("gvh.sphere", "bracket_sphere", "brackets", True),
    ("gvh.torus", "bracket_torus", "brackets", True),
    ("gvh.report", "emit_report", "report.emit", True),
    ("gvh.cli", "main", "cli", True),
]


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus its direct children's."""
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


# -- observers: counters taken from a call's arguments and result ----------

def _scalar_result(tracer, args, result):
    if result is not NotImplemented and result.is_zero():
        tracer.counts["scalars.zero_results"] += 1


def _gcd_result(tracer, args, result):
    if result.is_const():
        tracer.counts["scalars.gcd_trivial"] += 1


def _matrix_dim(tracer, args, result):
    tracer.shapes["matrices.mul"][(args[0].dim,)] += 1


def _rref_shape(tracer, args, result):
    rows, ncols = args[0], args[1]
    tracer.shapes["linalg.rref"][(len(rows), ncols, len(result[1]))] += 1


def _commutant_shape(tracer, args, result):
    mats = args[0]
    n_total = mats[0].entries.shape[0] if hasattr(mats[0], "entries") \
        else np.asarray(mats[0]).shape[0]
    interior = args[2] if len(args) > 2 else None
    m = interior if interior is not None else n_total // 2
    tracer.shapes["hermite.commutant"][(len(mats) * m * m, m * m)] += 1


OBSERVERS = {
    "scalars.ops": _scalar_result,
    "scalars.gcd": _gcd_result,
    "matrices.mul": _matrix_dim,
    "linalg.rref": _rref_shape,
    "hermite.commutant": _commutant_shape,
}


class Tracer:
    """In-memory span recorder plus the counters its observers fill."""

    def __init__(self):
        self.names = []
        self.groups = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._open_groups = Counter()
        self.counts = Counter()
        self.shapes = {g: Counter() for g in
                       ("matrices.mul", "linalg.rref", "hermite.commutant")}
        self._restore = []

    def name_id(self, name, group):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._name_ids[name]

    def wrap(self, fn, name, group, nested):
        name_id = self.name_id(name, group)
        observe = OBSERVERS.get(group)
        stack = self._stack
        open_groups = self._open_groups
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not nested and open_groups[group]:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            open_groups[group] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                open_groups[group] -= 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for modname, attr, group, nested in targets:
            module = importlib.import_module(modname)
            name = "%s.%s" % (modname.split(".", 1)[1], attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self.wrap(orig.__func__, name, group,
                                                    nested))
                else:
                    wrapped = self.wrap(orig, name, group, nested)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, name, group, nested)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("gvh"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def summary(self):
        """Calls and self time per span name and per group, plus counters."""
        ids = np.asarray(self.span_name)
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=selfs, minlength=len(self.names))
        by_name, by_group = {}, {}
        for i, (name, group) in enumerate(zip(self.names, self.groups)):
            by_name[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            agg = by_group.setdefault(group, {"calls": 0, "self_s": 0.0})
            agg["calls"] += int(calls[i])
            agg["self_s"] += float(self_s[i])
        return {
            "spans": by_name,
            "groups": by_group,
            "counts": dict(self.counts),
            "shapes": {g: sorted([list(k), v] for k, v in c.items())
                       for g, c in self.shapes.items()},
        }

    def dump(self, path):
        """Write the raw spans (name id, parent, start, end) as .npz."""
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.span_name),
                            parent=np.asarray(self.span_parent),
                            start=np.asarray(self.span_start),
                            end=np.asarray(self.span_end))
