"""Tests of the benchmark harness itself: tiny smoke runs, span arithmetic, checks.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fpbench import harness, layers  # noqa: E402
from fpbench.hostclock import HostClock, probe_seconds  # noqa: E402
from fpbench.spans import Patcher, Tracer, root_time, self_times, span_table  # noqa: E402
from fpbench.workloads import EcmpService, FlowletFaults, RegistryTiny  # noqa: E402

SPEC = harness.load_spec()


def tiny_flowlet(**kw):
    return FlowletFaults(q=5, rate=300.0, duration=0.002, **kw)


def tiny_ecmp(**kw):
    return EcmpService(q=5, max_flows=300, checkpoint_every=20, **kw)


def run_once(workload, trace=False, seed=0):
    return harness.run(workload, seed, seconds=0.0, trace=trace, setup_round_max=1)


def e2e_names():
    return [m["name"] for m in SPEC["end_to_end"]]


# ------------------------------------------------------------------ smoke runs
@pytest.mark.parametrize("make", [lambda: tiny_flowlet(expected={}),
                                  lambda: tiny_ecmp(expected={}),
                                  lambda: RegistryTiny(names=("fig20", "incast", "tab01"))],
                         ids=["flowlet_faults", "ecmp_service", "registry_tiny"])
def test_tiny_smoke_run_reports_every_end_to_end_metric(make, capsys):
    result = run_once(make(), seed=3)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    code = harness.finish(result, SPEC, False, {"nproc": 1})
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == e2e_names()
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_tiny_run_reports_every_per_layer_metric(capsys):
    result = run_once(tiny_ecmp(expected={}), trace=True)
    assert result["correct"], result["problems"]
    code = harness.finish(result, SPEC, True, {"nproc": 1})
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["engine.events"]["value"] > 0
    assert metrics["stream.checkpoint_kb"]["value"] > 0
    assert metrics["core.switch_useful_ratio"]["value"] == 0.0   # ECMP never moves a flow
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_patches_are_undone_after_a_traced_run():
    from repro.sim.engine import EngineCore
    import repro.sim.engine as engine

    step, faulted = EngineCore.__dict__["step"], engine.faulted_kernels
    run_once(tiny_ecmp(expected={}), trace=True)
    assert EngineCore.__dict__["step"] is step
    assert engine.faulted_kernels is faulted


# --------------------------------------------------------------- span arithmetic
def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],   # 0: root
        ["b", 1.0, 4.0, 0, 0],     # 1: child of a
        ["c", 2.0, 3.0, 1, 0],     # 2: child of b
        ["b", 5.0, 9.0, 0, 0],     # 3: child of a
        ["b", 6.0, 8.0, 3, 0],     # 4: b nested in b (counted once inclusively)
        ["d", 20.0, 21.0, -1, 0],  # 5: second root
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    table = span_table(spans)
    assert table["a"].inclusive == 10.0 and table["a"].self_time == 3.0
    assert table["b"].calls == 2 and table["b"].inclusive == 7.0
    assert table["b"].self_time == 6.0
    assert table["c"].inclusive == 1.0
    assert root_time(spans) == 11.0
    assert root_time(spans, after=15.0) == 1.0


def test_tracer_records_parents_and_generator_items():
    tracer = Tracer(run_id=7)

    def inner(x):
        return x + 1

    def numbers(n):
        yield from range(n)

    traced_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda x: traced_inner(x) * 2, lambda x: f"outer.{x}")
    assert outer(3) == 8
    assert list(tracer.wrap(numbers, "gen")(2)) == [0, 1]
    names = [s[0] for s in tracer.spans]
    assert names == ["outer.3", "inner", "gen", "gen", "gen", "gen"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert all(s[4] == 7 for s in tracer.spans)
    out = io.StringIO()
    tracer.write_jsonl(out)
    written = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(w["id"], w["name"], w["parent"], w["run"]) for w in written[:2]] == \
        [(0, "outer.3", -1, 7), (1, "inner", 0, 7)]


def test_patcher_replaces_every_binding_and_restores():
    import repro.kernels.dirtyregion as dirtyregion
    import repro.sim.engine as engine

    original = dirtyregion.faulted_kernels
    patcher = Patcher()
    replaced = patcher.function("repro.kernels.dirtyregion", "faulted_kernels",
                                lambda fn: Tracer().wrap(fn, "x"))
    try:
        assert replaced >= 2
        assert engine.faulted_kernels is dirtyregion.faulted_kernels is not original
    finally:
        patcher.restore()
    assert engine.faulted_kernels is original and dirtyregion.faulted_kernels is original
    patcher.function("repro.kernels.dirtyregion", "no_such_function", lambda fn: fn)
    assert patcher.missing == ["repro.kernels.dirtyregion.no_such_function"]


# ------------------------------------------------------------------- host clock
def test_host_clock_scales_each_segment_by_the_probes_at_its_ends():
    probes = iter([1.0, 3.0, 0.5])          # the host slows threefold, then speeds up
    clock = HostClock(probe=lambda: next(probes), reference_s=2.0)
    clock.sample(4.0)
    first = clock.mark()                     # factor 2 * 2 / (1 + 3) = 1
    host_first = clock.host_total
    assert clock.take_samples() == [4.0]
    clock.sample(1.0)
    second = clock.mark()                    # factor 2 * 2 / (3 + 0.5)
    assert clock.factors == [1.0, 4.0 / 3.5]
    assert first == host_first
    assert second == pytest.approx((clock.host_total - host_first) * 4.0 / 3.5)
    assert clock.total == pytest.approx(first + second)
    assert clock.take_samples() == [4.0 / 3.5] and clock.take_samples() == []


def test_host_clock_reads_reference_seconds_and_the_probe_is_positive():
    clock = HostClock(probe=lambda: 0.5, reference_s=1.0)   # host twice as fast
    clock.sample(0.25)
    seconds = clock.mark()
    assert clock.factors == [2.0] and clock.take_samples() == [0.5]
    assert seconds == 2.0 * clock.host_total
    assert probe_seconds() > 0


# ------------------------------------------------------------------- output checks
def test_expected_values_pass_and_a_tampered_one_fails(capsys):
    expected = tiny_flowlet(expected={}).make_expected()
    good = run_once(tiny_flowlet(expected=expected))
    assert good["correct"] and good["failed"] == 0
    tampered = json.loads(json.dumps(expected))
    tampered["values"]["events"] += 1
    bad = run_once(tiny_flowlet(expected=tampered))
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert any("events" in problem for problem in bad["problems"])
    assert harness.finish(bad, SPEC, False, {"nproc": 1}) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == bad["failed"]


def test_restored_stream_matches_the_uninterrupted_summary():
    expected = tiny_ecmp(expected={}).make_expected()
    good = run_once(tiny_ecmp(expected=expected))
    assert good["correct"], good["problems"]
    tampered = json.loads(json.dumps(expected))
    tampered["summary"]["completions"] -= 1
    bad = run_once(tiny_ecmp(expected=tampered))
    assert bad["failed"] == bad["attempted"] > 0


def test_committed_expectations_match_the_default_sizes():
    for workload in (FlowletFaults(), EcmpService()):
        assert workload.expected is not None, workload.name
        assert workload.expected["params"] == workload.params()
    assert FlowletFaults().expected["engine"] == "reference"


# ------------------------------------------------------------------ the spec file
def test_benchmark_json_names_every_metric_the_harness_reports():
    from repro.experiments.scenario import SCENARIO_MODULES

    per_layer = [m["name"] for m in SPEC["per_layer"]]
    reported = list(layers.layer_metrics(Tracer(), SCENARIO_MODULES))
    assert per_layer == reported + ["trace.overhead_ratio", "trace.coverage"]
    assert e2e_names() == ["wall_s", "setup_s", "peak_rss_mb", "events_per_s",
                           "advance_p50_ms", "advance_p99_ms"]
    assert [w["name"] for w in SPEC["workloads"]] == ["flowlet_faults", "ecmp_service",
                                                      "registry_tiny"]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
