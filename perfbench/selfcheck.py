#!/usr/bin/env python3
"""Checks the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

1. Determinism: on each single-client workload, two runs with the same
   seed must report identical counts, untraced (sim_ns_per_op,
   minor_words_per_op, space_amp) and traced (every *_per_op layer
   count, palloc.used_bytes, core.tx_commit_sim_ns).
2. Oracle control: under the missing-flush fault profile, each
   single-client workload that writes must report failed ops and exit
   nonzero, or the durability oracle would be vacuous.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SINGLE_CLIENT = ["update-hot", "churn-alloc", "lookup-large", "solo-commit"]
WRITERS = ["update-hot", "churn-alloc"]
UNTRACED_COUNTS = ["sim_ns_per_op", "minor_words_per_op", "space_amp"]
TRACED_COUNTS = ["palloc.used_bytes", "core.tx_commit_sim_ns"]


def run(workload, seed, seconds, trace, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result


def counts(result, trace):
    m = result["metrics"]
    names = UNTRACED_COUNTS if trace == 0 else TRACED_COUNTS + [n for n in m if n.endswith("_per_op")]
    return {n: m[n]["value"] for n in names}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    a = ap.parse_args()
    ok = True
    for w in SINGLE_CLIENT:
        for trace in (0, 1):
            runs = [run(w, a.seed, a.seconds, trace) for _ in range(2)]
            if any(rc != 0 or r is None for rc, r in runs):
                print("FAIL %s trace %d: run failed %s" % (w, trace, [rc for rc, _ in runs]))
                ok = False
                continue
            c0, c1 = (counts(r, trace) for _, r in runs)
            diff = {n: (c0[n], c1[n]) for n in c0 if c0[n] != c1[n]}
            print("%s %s trace %d: %d counts%s" % ("FAIL" if diff else "ok  ", w, trace, len(c0),
                                                   ", differ: %s" % diff if diff else " identical"))
            ok = ok and not diff
    for w in WRITERS:
        rc, r = run(w, a.seed, a.seconds, 0, fault="missing-flush")
        caught = rc != 0 and r is not None and r["failed"] > 0
        print("%s %s missing-flush: exit %d, failed %s" % ("ok  " if caught else "FAIL", w, rc,
                                                          r["failed"] if r else "-"))
        ok = ok and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
