#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload large-graphs --seeds 1-10 --seconds 25

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end bound in BENCHMARK.json is set against.  Also
reports the share of failed operations, which must be the same in every
run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values, shares = {}, set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True, timeout=900,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, file=sys.stderr)
            return 1
        shares.add((result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"failed shares: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name}: median {med:.6g} spread {(q3 - q1) / med:.4f}")
        else:
            print(f"{name}: median {med:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
