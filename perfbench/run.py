#!/usr/bin/env python3
"""Build the benchmark from source, then run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build's output goes to standard
error, so the last line of standard output is the benchmark's JSON
result.  A traced run (--trace 1) also writes its spans to
perfbench/out/<workload>-seed<N>.spans.jsonl unless --spans is given.
Exits nonzero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

# Workloads whose clients run on domains of their own.  Every other run
# is pinned to one CPU: on a small shared host a thread that migrates
# between CPUs carries each CPU's co-tenant noise into its timings.
MULTI_CLIENT = {"shared-commit"}


def arg_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def main():
    args = sys.argv[1:]
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 3
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, TARGET],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 3
    if arg_value(args, "--trace") == "1" and "--spans" not in args:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        name = "%s-seed%s.spans.jsonl" % (arg_value(args, "--workload"), arg_value(args, "--seed"))
        args += ["--spans", os.path.join(out, name)]
    pin = None
    if hasattr(os, "sched_setaffinity") and arg_value(args, "--workload") not in MULTI_CLIENT:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S, preexec_fn=pin).returncode
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
