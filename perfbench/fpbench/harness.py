"""The run loop: repeated set-up + measured phase, statistics and the result line.

One run of a workload repeats *set-up then measured phase* until ``seconds``
of host time are used (at least one repetition), checking the outputs of each
repetition outside the timed region.  Every time is read from a
:class:`~fpbench.hostclock.HostClock`, so it is in reference seconds: host
seconds scaled by the host's speed around them, measured by a fixed probe at
the clock's marks (before and after every set-up, and every few hundred
engine steps or service slices inside the measured phase).  End-to-end
metrics are medians over the repetitions of an untraced run; latencies are
pooled over all repetitions.
Before every repetition, the set-up alone runs at least once (up to
:data:`SETUP_ROUND_MAX` times while that takes under :data:`SETUP_ROUND_S`),
so ``setup_s`` is a median of many samples even when one set-up takes only
microseconds, and the samples are spread over the run as the repetitions are:
taken in one block, they all met the host in one state, and a 10 ms set-up
ran at 9 ms or at 14 ms for seconds at a time.  The samples are
:data:`SETUP_GAP_S` apart: back to back, a set-up of microseconds runs on hot
caches and its time then depends on the process's memory layout (it differed
twofold between processes), while a set-up that follows other work, as a real
one does, times the same in every process.

With ``trace=True`` untraced and traced repetitions alternate: the traced ones
give the per-layer metrics (medians over traced repetitions), and
``trace.overhead_ratio`` is the median traced wall time over the median
untraced one.  End-to-end metrics never come from a traced repetition.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from fpbench import layers
from fpbench.hostclock import HostClock
from fpbench.spans import Patcher, Tracer, root_time
from fpbench.workloads import Check

#: Set-up-only samples made before each repetition: at least one, more (up to
#: SETUP_ROUND_MAX) while they fit in SETUP_ROUND_S.
SETUP_ROUND_MAX = 41
SETUP_ROUND_S = 0.05
SETUP_GAP_S = 0.005

#: No repetition starts that would likely end past this much host time (a run
#: must end within 180 s, output checks included).
HARD_LIMIT_S = 120.0

ROOT = Path(__file__).resolve().parents[2]


def load_spec(path: Optional[Path] = None) -> dict:
    """``BENCHMARK.json``: metric names, units and bounds."""
    return json.loads((path or ROOT / "BENCHMARK.json").read_text())


@dataclass
class Rep:
    """One repetition's timings, counts and check."""

    setup_s: float
    wall_s: float
    measured_s: float
    events: int
    latencies: List[float]
    check: Check
    layer: Dict[str, float] = field(default_factory=dict)


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _one_rep(workload, seed: int, index: int, clock: HostClock,
             tracer: Optional[Tracer] = None) -> Rep:
    """Set-up + measured phase + check.  Exceptions fail the repetition's operations.

    The heap is collected first, so the garbage of earlier repetitions is not
    collected inside this one's timed region.  Times are reference seconds
    read from ``clock``; the measured phase may mark it between units of work.
    """
    gc.collect()
    clock.mark()                 # ends the segment of the previous repetition's check
    clock.take_samples()
    try:
        state = workload.setup(seed, index)
    except Exception:  # noqa: BLE001 - a failed set-up is reported, not fatal
        traceback.print_exc()
        return Rep(0.0, 0.0, 0.0, 0, [], Check(attempted=1, failed=1,
                                               problems=["set-up raised"]))
    setup_s = clock.mark()
    start, host_start = clock.total, clock.host_total
    ready = time.perf_counter()
    try:
        outputs = workload.measure(state, clock)
    except Exception:  # noqa: BLE001 - a failed measured phase is reported, not fatal
        traceback.print_exc()
        attempted = max(workload.offered(state), 1)
        outputs = None
    clock.mark()
    measured_s, host_measured_s = clock.total - start, clock.host_total - host_start
    latencies = clock.take_samples()
    if outputs is None:
        return Rep(setup_s, 0.0, 0.0, 0, [],
                   Check(attempted=attempted, failed=attempted,
                         problems=["measured phase raised"]))
    events = workload.events(outputs)
    if events is None:           # counted by the step probe
        events = len(latencies)
    layer: Dict[str, float] = {}
    if tracer is not None:
        from repro.experiments.scenario import SCENARIO_MODULES
        from repro.kernels import global_cache

        layer = layers.layer_metrics(tracer, SCENARIO_MODULES, global_cache().stats())
        layer["trace.coverage"] = root_time(tracer.spans, after=ready) / host_measured_s
    try:
        check = workload.check(state, outputs)
    except Exception:  # noqa: BLE001 - a crashing check is a failed check
        traceback.print_exc()
        attempted = max(workload.offered(state), 1)
        check = Check(attempted=attempted, failed=attempted, problems=["check raised"])
    return Rep(setup_s, setup_s + measured_s, measured_s, int(events), latencies, check,
               layer)


def _setup_samples(workload, seed: int, most: int, clock: HostClock) -> List[float]:
    """Set-up-only samples, scaled by the host speed around them."""
    clock.mark()
    clock.take_samples()
    count, total = 0, 0.0
    while not count or (count < most and total < SETUP_ROUND_S):
        time.sleep(SETUP_GAP_S)
        start = time.perf_counter()
        workload.setup(seed, 0)
        took = time.perf_counter() - start
        clock.sample(took)
        count, total = count + 1, total + took
    clock.mark()
    return clock.take_samples()


def _traced_rep(workload, seed: int, index: int, clock: HostClock,
                tracers: List[Tracer]) -> Rep:
    tracer = Tracer(run_id=index)
    tracers.append(tracer)
    patcher = Patcher()
    layers.install(patcher, tracer)
    try:
        rep = _one_rep(workload, seed, index, clock, tracer=tracer)
    finally:
        patcher.restore()
    for missing in patcher.missing:
        print(f"trace: entry point {missing} not found; its spans read 0")
    return rep


def run(workload, seed: int, seconds: float, trace: bool,
        spans_dir: Optional[Path] = None, setup_round_max: int = SETUP_ROUND_MAX) -> dict:
    """Run ``workload`` for ``seconds``; returns the result object (not yet printed)."""
    from repro.experiments.scenario import all_scenario_specs

    all_scenario_specs()       # every import happens before the clock starts
    clock = HostClock()
    extra: List[float] = []
    begin = time.perf_counter()
    plain: List[Rep] = []
    traced: List[Rep] = []
    tracers: List[Tracer] = []
    patcher = Patcher()
    if not trace:
        layers.StepProbe(clock).install(patcher)
    try:
        while True:
            index = len(plain)
            extra += _setup_samples(workload, seed, setup_round_max, clock)
            plain.append(_one_rep(workload, seed, index, clock))
            if trace:      # the same inputs as the untraced repetition just made
                traced.append(_traced_rep(workload, seed, index, clock, tracers))
            elapsed = time.perf_counter() - begin
            per_round = elapsed / len(plain)
            if elapsed + per_round > seconds or elapsed + per_round > HARD_LIMIT_S:
                break
    finally:
        patcher.restore()
    if spans_dir is not None and tracers:   # spans stay in memory until the run ends
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            for tracer in tracers:
                tracer.write_jsonl(out)
    result = _result(plain, traced, extra)
    result["host_speed"] = statistics.median(clock.factors) if clock.factors else 1.0
    return result


def _result(plain: List[Rep], traced: List[Rep], extra: List[float]) -> dict:
    reps = plain + traced
    attempted = sum(r.check.attempted for r in reps)
    failed = sum(r.check.failed for r in reps)
    problems = [p for r in reps for p in r.check.problems]
    ok = [r for r in plain if r.wall_s > 0]
    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    if not traced and ok:
        latencies = [x for r in ok for x in r.latencies]
        setups = extra + [r.setup_s for r in ok]
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events_per_s": statistics.median(r.events / r.measured_s for r in ok),
            "advance_p50_ms": _percentile(latencies, 50) * 1e3 if latencies else 0.0,
            "advance_p99_ms": _percentile(latencies, 99) * 1e3 if latencies else 0.0,
        }
        samples = {"wall_s": len(ok), "setup_s": len(setups), "peak_rss_mb": 1,
                   "events_per_s": len(ok), "advance_p50_ms": len(latencies),
                   "advance_p99_ms": len(latencies)}
    elif traced and ok:
        good = [r for r in traced if r.wall_s > 0]
        for name in (good[0].layer if good else {}):
            metrics[name] = statistics.median(r.layer[name] for r in good)
            samples[name] = len(good)
        if good:
            metrics["trace.overhead_ratio"] = statistics.median(r.wall_s for r in good) \
                / statistics.median(r.wall_s for r in ok)
            samples["trace.overhead_ratio"] = len(good)
    per_rep = [{"wall_s": r.wall_s, "setup_s": r.setup_s, "measured_s": r.measured_s,
                "events": r.events,
                "p50_ms": _percentile(r.latencies, 50) * 1e3 if r.latencies else 0.0,
                "p99_ms": _percentile(r.latencies, 99) * 1e3 if r.latencies else 0.0}
               for r in ok]
    return {"correct": failed == 0 and bool(ok), "attempted": max(attempted, 1),
            "failed": failed if ok else max(failed, 1), "metrics": metrics,
            "samples": samples, "problems": problems, "per_rep": per_rep}


def finish(result: dict, spec: dict, trace: bool, threads: Dict[str, object]) -> int:
    """Print the human-readable report and the result line; returns the exit code."""
    group = "per_layer" if trace else "end_to_end"
    wanted = spec[group]
    metrics = result["metrics"]
    print("threads: " + " ".join(f"{k}={v}" for k, v in threads.items()))
    print(f"host speed: median scale factor {result['host_speed']:.4f} "
          "(reference seconds per host second)")
    for index, rep in enumerate(result["per_rep"]):
        print(f"repetition {index}: " + " ".join(f"{k}={v:.6g}" for k, v in rep.items()))
    out: Dict[str, dict] = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            result["problems"].append(f"metric {name} was not measured")
            result["correct"] = False
            continue
        value = float(metrics[name])
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={result['samples'].get(name, 0)}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    line = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": out}
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1
