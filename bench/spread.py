"""Run a workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload satellites --seeds 1-10 [--trace 1]

For every metric: the median over runs and the distance between the
first and third quartiles as a share of the median, which is how run-to-
run steadiness is judged against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    first, last = (int(t) for t in args.seeds.split("-"))
    values, walls = {}, []
    for seed in range(first, last + 1):
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        walls.append(time.perf_counter() - t0)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {len(walls)} runs, wall median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    summary = {"workload": args.workload, "seeds": args.seeds,
               "run_seconds": bench["run_seconds"], "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}"
        print(f"  {name:38s} median {med:12.6f}  spread {share:.4f}{note}")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": share, "runs": len(vals)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
