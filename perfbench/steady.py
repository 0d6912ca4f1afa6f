"""Steadiness: run one workload N times, fresh processes, and show the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload sweep-cold --runs 10 --seconds 45

Run ``i`` uses seed ``--seed + i``.  For every metric the table gives the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the extremes; the bounds in ``BENCHMARK.json``
are set from this spread.  The per-run values are written to
``.perfbench_work/steady/<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/steady.py")
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for i in range(args.runs):
        cmd = [sys.executable, os.path.join(common.HERE, "run.py"),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"run {i}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"run {i + 1}/{args.runs} seed {args.seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{args.workload} · {args.runs} runs · failed share "
          f"{'same in every run' if len(shares) == 1 else 'DIFFERS: ' + str(sorted(shares))}")
    print(f"{'metric':32s} {'unit':>13s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'min':>14s} {'max':>14s}")
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": first["unit"], "values": values, "median": med,
                         "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:32s} {first['unit']:>13s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {min(values):14.6g} {max(values):14.6g}")
    out = os.path.join(common.WORK, "steady", f"{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "seeds": [args.seed + i for i in range(args.runs)],
                   "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
