"""Time gvh commands from process spawn to exit, with their peak memory.

Command line, children and rounds: see `tools/benchtool.py`.  Every sample
runs `python -m gvh.cli ARGV` in a fresh interpreter with stdout discarded,
so each process compiles gvh from source, as a fresh checkout does, and pays
for every module it imports.  Over SAMPLES rounds the script reports the
median and quartiles of the wall time from spawn to exit and of the child's
peak RSS, per command and tree.
"""

from __future__ import annotations

import sys

import benchtool

COMMANDS = (
    ("bracket", "r2n", "q1^2*p1", "p1^2"),
    ("checkq1", "sphere", "S1", "S2"),
    ("normalizer", "r2n", "1", "q1", "p1"),
    ("verify", "r2n"),
    ("verify", "torus", "--k", "2", "--trunc", "64"),
)
SAMPLES = 11


def bench(trees):
    runs = benchtool.rounds(trees, COMMANDS, SAMPLES, lambda src, argv:
                            benchtool.spawn(src, ["-m", "gvh.cli", *argv]))
    out = {}
    for label, by_command in runs.items():
        out[label] = {"samples": SAMPLES, "cases": []}
        for argv, children in zip(COMMANDS, by_command):
            codes = {c.exit for c in children}
            assert len(codes) == 1, (label, argv, codes)
            wall = [c.wall_s for c in children]
            rss = [c.rss_mib for c in children]
            case = {"command": "gvh " + " ".join(argv), "exit": codes.pop(),
                    "wall_s": benchtool.quartiles(wall),
                    "peak_rss_mib": benchtool.quartiles(rss),
                    "wall_samples": wall, "rss_samples_mib": rss}
            out[label]["cases"].append(case)
            print("%-44s %-7s %.3f s  %.1f MiB" % (
                case["command"], label, case["wall_s"]["median"],
                case["peak_rss_mib"]["median"]), file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
