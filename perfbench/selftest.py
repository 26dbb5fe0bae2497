#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

For every workload and both trace modes, runs ``run.py --tiny`` and asserts
that the result line has exactly the keys of the contract, that every
metric named in BENCHMARK.json is emitted with its unit, and that every
oracle passed.  Then checks that a copy holding only BENCHMARK.json and the
benchmark files (no ``src/``) exits non-zero without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: oracle failures\n{done.stdout}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
            print(f"{where}: {result['attempted']} ops, {len(got)} metrics")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        failures.append("a copy without src/ did not fail cleanly")
    else:
        print(f"copy without src/: exit {done.returncode}")
    shutil.rmtree(bare)

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
