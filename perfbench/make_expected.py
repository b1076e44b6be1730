#!/usr/bin/env python3
"""Regenerate the committed expected outputs under ``perfbench/expected/``.

Usage (from the repository root)::

    python3 perfbench/make_expected.py [flowlet_faults] [ecmp_service]

``flowlet_faults`` is computed with the scalar reference engine
(``engine="reference"``), so the vectorized engine the benchmark times is
checked against the specification, not against itself.  ``ecmp_service`` is
the summary of an uninterrupted run; the benchmark's run restores a checkpoint
mid-run and must reproduce it exactly.  ``registry_tiny`` needs no file here:
it is compared with ``tests/experiments/golden/tiny_seed0.json``.
Regenerate only as a deliberate step, after a change that is meant to alter
simulation results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    """Write ``expected/<workload>.json`` for each named workload (default: both)."""
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from fpbench.workloads import EXPECTED_DIR, EcmpService, FlowletFaults

    makers = {"flowlet_faults": FlowletFaults, "ecmp_service": EcmpService}
    names = list(argv if argv is not None else sys.argv[1:]) or sorted(makers)
    unknown = [name for name in names if name not in makers]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {sorted(makers)}", file=sys.stderr)
        return 2
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        record = makers[name](expected={}).make_expected()
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
