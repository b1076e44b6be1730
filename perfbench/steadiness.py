#!/usr/bin/env python3
"""Run sets of benchmark runs on the same code; report metrics, checks and agreement.

Usage (from the repository root)::

    python3 perfbench/steadiness.py                 # two sets of ten runs per workload
    python3 perfbench/steadiness.py --runs 1 --sets 1 --first-seed 0   # one-shot report

Each set runs every workload of ``BENCHMARK.json`` once per seed (seeds
``first-seed`` .. ``first-seed + runs - 1``, workloads interleaved) for the
spec's ``run_seconds``, each in its own ``perfbench/run.py`` process, and
prints every run's operations attempted and failed.  For every workload and
end-to-end metric it then prints each set's median and quartiles
(``statistics.quantiles(n=4)``) with the unit, the spread (quartile distance
over median) and whether the sets agree within the metric's bound: every
spread, ``setup_s``'s included, within the bound, and every later set's median
within the bound of the first set's, in either direction.  Exit code 0 only if
every pair agrees and every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_workload(workload: str, seed: int, seconds: int) -> Tuple[int, Optional[dict]]:
    """Run one benchmark process; returns its exit code and parsed result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, None
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def passed(code: int, result: Optional[dict]) -> bool:
    """Exit code 0 and a correct result with no failed operation."""
    return code == 0 and result is not None and result["correct"] and result["failed"] == 0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles(n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    """Run the sets, print the runs and the agreement table; 0 if all agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    values: Dict[Tuple[int, str], Dict[str, List[float]]] = {
        (s, w): {} for s in range(args.sets) for w in workloads}
    agree = True
    for s in range(args.sets):
        for i in range(args.runs):
            for workload in workloads:
                seed = args.first_seed + i
                code, result = run_workload(workload, seed, spec["run_seconds"])
                ok = passed(code, result)
                agree = agree and ok
                if result is not None:
                    for name, metric in result["metrics"].items():
                        values[(s, workload)].setdefault(name, []).append(metric["value"])
                result = result or {}
                print(f"set {s + 1} run {i + 1}/{args.runs} {workload} seed {seed}: "
                      f"{'ok' if ok else f'FAILED (exit {code})'}, operations attempted "
                      f"{result.get('attempted', 0)}, failed {result.get('failed', '-')}",
                      flush=True)

    print(f"\n{'workload':<15} {'metric':<15} {'unit':<5} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'moved':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            first = None
            for s in range(args.sets):
                series = values[(s, workload)].get(name, [])
                if not series:
                    print(f"{workload:<15} {name:<15} {unit:<5} {s + 1:>3}  no values")
                    agree = False
                    continue
                q1, median, q3 = quartiles(series)
                width = (q3 - q1) / median if median else float("inf")
                first = median if first is None else first
                moved = (median - first) / first if first else 0.0
                verdict = "ok"
                if width > bound:
                    verdict = "TOO NOISY"
                if abs(moved) > bound:
                    verdict = "MEDIAN MOVED"
                agree = agree and verdict == "ok"
                print(f"{workload:<15} {name:<15} {unit:<5} {s + 1:>3} {median:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {width:>7.3f} {moved:>+7.3f} {bound:>6.2f}"
                      f"  {verdict}")
    print("\nall pairs agree" if agree else "\nsome pairs DISAGREE or some runs failed")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
