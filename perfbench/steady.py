"""Steadiness report: run the benchmark on several seeds per workload and
compare each end-to-end metric's spread with its bound.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--tiny]

For each workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json, and writes the table to
.perfbench/steady-<time>.json.  Every run's wall time is printed too,
to check the benchmark's total time budget.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                                  cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall, "
                  + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        table[workload] = {"wall_s": walls, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            table[workload]["metrics"][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name]}
            flag = "ok" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            print(f"  {workload:12s} {name:18s} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]:5.2f} {flag}")
        print(f"  {workload:12s} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1))
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
