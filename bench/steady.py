"""Steadiness check: repeat the benchmark and report the spread of each metric.

    python3 bench/steady.py --repeats 10 --seconds 15 [--workloads certify,cli] [--seed0 100]

Repeat r runs every workload once with seed seed0 + r, in the listed order
on even repeats and reversed on odd ones, each in a fresh process. Prints,
per workload and end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json; and
the share of failed operations per run, which must be the same in every
run. All results are written to bench/out/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    chosen = args.workloads.split(",")

    runs = {w: [] for w in chosen}
    for r in range(args.repeats):
        for w in chosen if r % 2 == 0 else chosen[::-1]:
            cmd = spec["command"] + ["--workload", w, "--seed", str(args.seed0 + r),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = args.seed0 + r, wall
            runs[w].append(res)
            print(f"{w:<11} seed {args.seed0 + r:<4} wall {wall:6.1f} s  correct {res['correct']}  "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{'workload':<11} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, rs in runs.items():
        for metric in rs[0]["metrics"]:
            vals = [x["metrics"][metric]["value"] for x in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print(f"{w:<11} {metric:<32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}")
        shares = {x["failed"] / x["attempted"] for x in rs}
        print(f"{w:<11} {'failed share':<32} {', '.join(f'{s:.6f}' for s in sorted(shares))}"
              f"{'' if len(shares) == 1 else '  (NOT THE SAME IN EVERY RUN)'}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "runs": runs}, indent=1))
    print(f"\nresults: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
