"""Time gvh commands from process spawn to exit, with their peak memory.

    python3 tools/bench_startup.py --tree parent=DIR --tree change=DIR [--out FILE]

Each DIR is the `src` tree of a checkout (default: one tree, this
checkout's, labelled "change").  Every sample runs `python -m gvh.cli ARGV`
in a fresh interpreter with `PYTHONDONTWRITEBYTECODE=1` and stdout
discarded, so each process compiles gvh from source, as a fresh checkout
does, and pays for every module it imports.  The script records the wall
time from spawn to exit and the child's `ru_maxrss` (read with `os.wait4`).
Runs alternate between the trees within each command, SAMPLES rounds, and
the script reports the median and quartiles per command and tree.  BLAS
runs on one thread, as in `perfbench/run.py`.

With `--out`, the run is written to FILE; without it, it is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ("bracket", "r2n", "q1^2*p1", "p1^2"),
    ("checkq1", "sphere", "S1", "S2"),
    ("normalizer", "r2n", "1", "q1", "p1"),
    ("verify", "r2n"),
    ("verify", "torus", "--k", "2", "--trunc", "64"),
)
SAMPLES = 11


def spawn(src, argv):
    """(wall seconds, peak RSS in MiB, exit code) of one fresh gvh process."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gvh.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench(trees):
    runs = {(label, argv): [] for argv in COMMANDS for label in trees}
    for _ in range(SAMPLES):
        for argv in COMMANDS:
            for label, src in trees.items():
                runs[label, argv].append(spawn(src, argv))
    cases = []
    for (label, argv), samples in runs.items():
        codes = {code for _, _, code in samples}
        assert len(codes) == 1, (label, argv, codes)
        wall = [w for w, _, _ in samples]
        rss = [r for _, r, _ in samples]
        cases.append({"command": "gvh " + " ".join(argv), "tree": label,
                      "exit": codes.pop(), "wall_s": _quartiles(wall),
                      "peak_rss_mib": _quartiles(rss), "wall_samples": wall,
                      "rss_samples_mib": rss})
        print("%-44s %-7s %.3f s  %.1f MiB" % (
            cases[-1]["command"], label, cases[-1]["wall_s"]["median"],
            cases[-1]["peak_rss_mib"]["median"]), file=sys.stderr)
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    metavar="LABEL=DIR", help="a labelled src tree to time")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": str(ROOT / "src")}
    trees = {label: str(Path(src).resolve()) for label, src in trees.items()}
    run = {"samples": SAMPLES,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "processor": platform.processor() or platform.machine(),
                       "python": platform.python_version()},
           "cases": bench(trees)}
    text = json.dumps(run, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
