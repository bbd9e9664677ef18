#!/usr/bin/env python3
"""Run one workload once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload serve-churn --seeds 1-10 [--trace 0]

Run from the repository root.  The spread is the distance between the
first and third quartile of the runs' values (statistics.quantiles,
n=4) as a share of their median; BENCHMARK.json's bound on an
end-to-end metric should be at least three times it.  Each run's last
output line is also appended to perfbench/out/spread-<workload>.jsonl,
with the run's raw (not normalised) median qps and kernel chunk time,
which show how much the host's speed moved under the normalised figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = os.path.join("perfbench", "out", f"spread-{args.workload}.jsonl")

    values = {m["name"]: [] for m in declared}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.rstrip("\n").split("\n")
        host = {w[0]: int(w[1]) for w in map(str.split, lines)
                if len(w) == 2 and w[0] in ("raw_qps_median", "chunk_ns_median")}
        line = lines[-1]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "host": host, "result": json.loads(line)}) + "\n")
        for name, m in json.loads(line)["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed} done {host}", file=sys.stderr, flush=True)

    print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
        print(f"{name:28} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
