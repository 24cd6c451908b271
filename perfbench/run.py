#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload globe3-record --seed 1 --seconds 20 --trace 0

The runner (perfbench/main.ml) is built with dune inside the checkout and
run as one process on one OCaml domain. Its standard output is passed
through unchanged; the last line is the JSON result. Build output goes to
standard error. Outside a checkout of the repository (no dune-project or
lib/ next to perfbench/) it exits with code 2 and prints no result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["globe3-record", "na3-protocols", "fabric-chaos"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: not in a checkout of the repository "
              "(no dune-project or lib/ beside perfbench/)", file=sys.stderr)
        return 2

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(build.stdout)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the runner's
    # set-up probe children.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
