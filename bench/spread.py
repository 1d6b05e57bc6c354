"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

    python3 bench/spread.py --workload deep --seeds 1-10 --seconds 35

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles and the spread (q3 - q1) / median, the
figure each metric's bound in BENCHMARK.json is checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values = {}
    units = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print("seed %d failed (exit %d):\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)

    print("%-28s %12s %12s %12s %8s  (n=%d)" % ("metric", "q1", "median", "q3", "spread",
                                               len(args.seeds)))
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print("%-28s %12.6g %12.6g %12.6g %8.4f  %s" % (name, q1, med, q3, spread, units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
