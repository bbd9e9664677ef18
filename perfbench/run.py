#!/usr/bin/env python3
"""Build the ledger from source and run one workload.

    python3 perfbench/run.py --workload xmark-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The ledger binary prints a table and, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics, named and unit-labelled as BENCHMARK.json declares them.
The exit code is nonzero when the build fails, a correctness check
fails, or the measured metrics are not the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

LEDGER = os.path.join("_build", "default", "perfbench", "ledger.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "dune-project", "lib", "perfbench/ledger.ml"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of an xpest source tree")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    # Build only the ledger and the libraries it links; keep dune's
    # output off stdout and its cache inside the tree.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/ledger.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode or 1)

    cmd = [
        LEDGER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--benchmark", "BENCHMARK.json",
        "--out", os.path.join("perfbench", "out"),
    ]
    # The ledger forks its measuring processes; its own session lets a
    # timeout stop them all.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"ledger did not finish within {RUN_TIMEOUT_S}s", 4)
    if code != 0:
        fail(f"ledger exited with code {code}", code)


if __name__ == "__main__":
    main()
