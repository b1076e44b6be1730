#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics; the last line is the result JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flowlet_faults --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from untraced
repetitions; ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics.  Outputs are checked in both modes; a failed check makes
the result ``"correct": false`` and the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict:
    """Cap the BLAS/OpenMP pools at ``nproc`` threads; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    """Parse arguments, run the workload, print the report and the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from fpbench import harness
    from fpbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = harness.load_spec()
    result = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace),
                         spans_dir=ROOT / ".perfbench" / "spans")
    return harness.finish(result, spec, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
