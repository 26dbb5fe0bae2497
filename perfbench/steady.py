#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs every workload of BENCHMARK.json with ``--trace 0`` once per seed and
reports, for each end-to-end metric, the median and the spread: the
distance between the first and third quartile of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
above the metric's bound in BENCHMARK.json fails the check.  Then runs each
workload twice with ``--trace 1`` on one seed and fails if any count-type
per-layer metric differs between the two runs.  Every run must pass its
oracles.

    python3 perfbench/steady.py --seeds 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import COUNTS  # noqa: E402


WALLS: list[float] = []


def result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    WALLS.append(perf_counter() - start)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} seed {seed}: oracle failures\n{done.stdout}")
    return {n: m["value"] for n, m in out["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [result(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "FAIL")
            ok = ok and verdict != "FAIL"
            print(f"{workload:16s} {name:15s} median {median:.6g} spread {spread:.4f} "
                  f"bound {bound} {verdict}  values {[round(v, 6) for v in values]}",
                  flush=True)
        first, second = (result(workload, 1, seconds, 1) for _ in range(2))
        differ = [n for n in COUNTS if first[n] != second[n]]
        ok = ok and not differ
        print(f"{workload:16s} counts repeat exactly: {'no ' + str(differ) if differ else 'yes'}",
              flush=True)
    print(f"run wall seconds: min {min(WALLS):.1f} max {max(WALLS):.1f} "
          f"mean {statistics.mean(WALLS):.1f} over {len(WALLS)} runs")
    print("steady", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
