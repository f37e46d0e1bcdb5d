"""What every `tools/bench_*.py` shares: its command line, its child
processes, its rounds, its statistics and its store.

    python3 tools/bench_NAME.py [LABEL=SRC ...] [--out FILE]

Each LABEL=SRC names the `src` tree of a checkout to time (default: this
checkout's, as `change`), so one copy of a script compares two checkouts:
`parent=../parent/src change=src`.  Every child is a fresh interpreter with
that tree alone on `PYTHONPATH` and the environment `perfbench/run.py` pins
(one BLAS thread, `PYTHONHASHSEED=0`, `GVH_TRUNC` unset), plus
`PYTHONDONTWRITEBYTECODE=1` and a `PYTHONPYCACHEPREFIX` that holds no gvh
bytecode: gvh compiles from source, as in a fresh checkout, even when the
tree it times holds a `__pycache__`, and no child writes one.  Every
round measures each case once per tree, the trees in turn, and the next round
takes them in the reverse order.  With `--out`, each tree's run is stored in
FILE under its label, keeping the runs stored there under other labels;
without it the runs are printed.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, for its child environment)

Child = namedtuple("Child", "stdout exit wall_s rss_mib")


def parse_args(doc, argv=None):
    """({label: absolute src}, --out or None) from the command line."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC",
                    default=["change=%s" % (ROOT / "src")])
    ap.add_argument("--out", metavar="FILE")
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.trees:
        label, sep, src = spec.partition("=")
        if not (sep and label and src) or label in trees:
            ap.error("expected distinct LABEL=SRC pairs, got %r" % spec)
        trees[label] = str(Path(src).resolve())
    return trees, args.out


# Imports every gvh module and numpy, so that the bytecode they need lands
# in the cache.
WARM = ("import importlib, pkgutil, numpy, gvh\n"
        "for m in pkgutil.iter_modules(gvh.__path__):\n"
        "    importlib.import_module('gvh.' + m.name)\n")


@functools.cache
def bytecode_cache():
    """A `PYTHONPYCACHEPREFIX` directory that holds the bytecode of the
    standard library and numpy but none of gvh's, removed at exit.  A child
    pointed at an empty one would compile numpy from source too (0.55 s
    instead of 0.17 s to import it on a 2-core Intel Xeon VM), so one child
    imports every gvh module with writes on, and the gvh bytecode it left
    there is deleted."""
    cache = tempfile.mkdtemp(prefix="gvh-bench-pyc-")
    atexit.register(shutil.rmtree, cache, ignore_errors=True)
    env = run.child_env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPYCACHEPREFIX=cache)
    subprocess.run([sys.executable, "-c", WARM], env=env, check=True)
    shutil.rmtree(Path(cache, *(ROOT / "src").parts[1:]))
    return cache


def child_env(src, cache):
    """The environment of a child that times the tree `src`, with the
    bytecode directory `cache`."""
    env = run.child_env()
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=cache)
    return env


def spawn(src, args):
    """Run `python ARGS` on the tree `src`: its stdout, exit code, wall time
    from spawn to exit and peak RSS (`ru_maxrss`, read with `os.wait4`)."""
    env = child_env(src, bytecode_cache())
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return Child(out, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def child_json(src, code, *args):
    """The JSON object that the program `code` prints, run with ARGS on the
    tree `src`; a child that fails stops the benchmark."""
    child = spawn(src, ["-c", code, *map(str, args)])
    if child.exit != 0:
        raise RuntimeError("child %r exited with %s" % (args, child.exit))
    return json.loads(child.stdout)


def rounds(trees, cases, samples, measure):
    """{label: [[measure(src, case) for each round] for each case]} over
    `samples` rounds, the trees in reverse order every other round."""
    runs = {label: [[] for _ in cases] for label in trees}
    order = list(trees)
    for _ in range(samples):
        for k, case in enumerate(cases):
            for label in order:
                runs[label][k].append(measure(trees[label], case))
        order.reverse()
    return runs


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def store(runs, out):
    """Print the {label: run} runs, or merge them into the file `out`."""
    if out is None:
        print(json.dumps(runs, indent=1, sort_keys=True))
        return
    path = Path(out)
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored.update(runs)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(doc, bench, argv=None):
    """Run `bench({label: src})`, which returns {label: run}, and store each
    run with the machine and the labels it alternated with."""
    trees, out = parse_args(doc, argv)
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "processor": platform.processor() or platform.machine(),
               "python": platform.python_version()}
    runs = bench(trees)
    for label, one in runs.items():
        one.update(machine=machine, alternated_with=sorted(set(trees) - {label}))
    store(runs, out)
    return 0
