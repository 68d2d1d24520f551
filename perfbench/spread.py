#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its acceptance measures it.

    python3 perfbench/spread.py [--runs N] [--seconds S] [--first-seed K] WORKLOAD...

Runs each workload N times (seeds K, K+1, ...) through run.py, untraced,
and prints per end-to-end metric the median of the N values and the
interquartile range as a share of that median, next to a third of the
metric's bound from BENCHMARK.json (the target for a steady benchmark).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    opts = {"--runs": "10", "--seconds": None, "--first-seed": "1"}
    workloads = []
    it = iter(argv)
    for a in it:
        if a in opts:
            opts[a] = next(it)
        else:
            workloads.append(a)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads or [x["name"] for x in spec["workloads"]]:
        values = {}
        for i in range(int(opts["--runs"])):
            seed = str(int(opts["--first-seed"]) + i)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", seed,
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"{w:14s} {k:24s} median {med:12.4f}  spread {spread:6.3f}  "
                  f"bound/3 {bounds[k] / 3:6.3f}  {'ok' if spread < bounds[k] / 3 else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in vs)}]")
    print(f"worst spread/bound (excluding setup_s): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
