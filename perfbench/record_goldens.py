"""Record the outputs that run.py compares against, into goldens.json.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose outputs are known to be right.  It
records the report bytes of every r2n, sphere and seed-0 explore invocation,
and, for torus, a float-masked template taken from the k = 2 report, which
must meet the certificate bounds itself.  Nothing is recorded when an
invocation exits differently than expected or fails its semantic check, so a
wrong verdict never becomes a golden.
"""

import json
import sys
import time

import run
import workloads


def main():
    env = run.child_env()
    deadline = time.monotonic() + 3600
    goldens = {"reports": {}, "torus_template": None}
    for name in ("r2n", "sphere", "explore"):
        invs = workloads.invocations(name, 0)
        records = run.replay(invs, None, deadline, env)
        for inv, rec in zip(invs, records):
            if rec["exit"] != inv["expect_exit"]:
                sys.exit("refusing to record %s: exit %r" % (inv["key"], rec["exit"]))
            goldens["reports"][inv["key"]] = rec["stdout"]
        problems = workloads.check_replay(invs, records, goldens)
        bad = [(inv["key"], p) for inv, p in zip(invs, problems) if p]
        if bad:
            sys.exit("refusing to record: %s" % bad)
    torus = workloads.cli("verify", "torus", "--k", 2, "--trunc",
                          workloads.TORUS_TRUNC, kind="torus")
    rec = run.replay([torus], None, deadline, env)[0]
    goldens["torus_template"] = workloads.torus_template(rec["stdout"])
    problems = workloads.check_replay([torus], [rec], goldens)
    if rec["exit"] != 0 or problems[0]:
        sys.exit("refusing to record the torus template: %s" % (problems[0],))
    path = run.HERE / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print("wrote %d reports and the torus template to %s"
          % (len(goldens["reports"]), path))


if __name__ == "__main__":
    main()
