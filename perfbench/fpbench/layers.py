"""The outside-in layer catalogue: what the traced run wraps, and what it reports.

Every entry point below is a public function or method of one ``repro`` layer.
:func:`install` wraps them all with one :class:`~fpbench.spans.Tracer`; the
program itself is not edited.  :func:`layer_metrics` turns the recorded spans
and counters into the per-layer metrics named in ``BENCHMARK.json``.

:class:`StepProbe` is the one hook the *untraced* runs install: a timer around
``EngineCore.step`` that yields the per-event host latency of the batch
workloads, where no caller-visible slice exists.
"""

from __future__ import annotations

import importlib
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from fpbench.spans import Patcher, Tracer, span_table

#: (module, functions, span name): functions wrapped in every binding.
FUNCTIONS = (
    ("repro.topologies", ("complete_graph", "dragonfly", "fat_tree", "flattened_butterfly",
                          "hyperx", "jellyfish", "equivalent_jellyfish", "slim_fly", "star",
                          "xpander", "build", "comparable_configurations"),
     "topologies.build"),
    ("repro.traffic", ("poisson_workload", "uniform_size_workload", "adversarial_offdiagonal",
                       "all_patterns", "multiple_permutations", "off_diagonal",
                       "random_permutation", "random_uniform", "shuffle_pattern",
                       "stencil_pattern", "worst_case_pattern"), "traffic.generate"),
    ("repro.traffic.patterns", ("incast_pattern", "broadcast_shuffle_pattern"),
     "traffic.generate"),
    ("repro.traffic.streams", ("poisson_flow_stream",), "traffic.generate"),
    ("repro.routing.spain", ("build_spain_layers",), "routing.spain_build"),
    ("repro.core.layers", ("build_layers", "random_edge_sampling_layers",
                           "interference_minimizing_layers"), "core.layers"),
    ("repro.core.forwarding", ("build_forwarding_tables",), "core.forwarding"),
    ("repro.kernels", ("batch_disjoint_paths",), "kernels.disjoint"),
    ("repro.kernels.dirtyregion", ("faulted_kernels",), "kernels.faulted"),
    ("repro.mcf.general", ("general_max_throughput",), "mcf.solve"),
    ("repro.mcf.layered", ("path_restricted_max_throughput",), "mcf.solve"),
    ("repro.sim.engine", ("simulate_many",), "sim.simulate_many"),
    ("repro.sim.flowsim", ("simulate_workload",), "sim.simulate_workload"),
    ("repro.sim.packetsim", ("simulate_packets",), "sim.packets"),
    ("repro.experiments.grid", ("run_experiment_grid",), "grid.sweep"),
)

#: (class path, methods, span name): methods wrapped in the class itself.
METHODS = (
    ("repro.sim.engine.EngineCore", ("step",), "engine.step"),
    ("repro.sim.engine.EngineCore", ("advance_to",), "engine.advance"),
    ("repro.sim.engine.EngineCore", ("admit_pending",), "engine.admit"),
    ("repro.sim.engine.EngineCore", ("maybe_switch_paths",), "engine.switch"),
    ("repro.sim.engine.EngineCore", ("maybe_switch_paths_faulted",), "engine.switch_faulted"),
    ("repro.sim.engine.EngineCore", ("apply_fault_epoch",), "engine.fault_epoch"),
    ("repro.sim.engine._FaultRuntime", ("apply",), "kernels.faulted"),
    ("repro.sim.stream.StreamSimulator", ("push",), "stream.push"),
    ("repro.sim.stream.StreamSimulator", ("advance",), "stream.advance"),
    ("repro.sim.stream.StreamSimulator", ("compact",), "stream.compact"),
    ("repro.sim.stream.StreamSimulator", ("checkpoint",), "stream.checkpoint"),
    ("repro.sim.stream.StreamSimulator", ("restore",), "stream.restore"),
    ("repro.sim.stream.StreamSimulator", ("run",), "sim.stream_run"),
)

#: Base classes whose every subclass defining the method gets it wrapped.
FAMILIES = (
    ("repro.routing.base.MultiPathRouting", "router_paths", "routing.router_paths"),
    ("repro.core.fatpaths.FatPathsRouting", "router_paths", "routing.router_paths"),
    ("repro.core.loadbalance.PathSelector", "next_path_batch", "core.selector"),
)

#: Allocator classes: ``recompute`` is the rate fill, the rest amend the incidence.
ALLOCATORS = ("repro.sim.allocstate.FullAllocator", "repro.sim.allocstate.IncrementalAllocator",
              "repro.sim.bottleneck.BottleneckAllocator")

#: Spans reported as inclusive seconds under ``<span>_s``.
TIMED = ("topologies.build", "traffic.generate", "routing.spain_build", "routing.router_paths",
         "core.layers", "core.forwarding", "core.selector", "kernels.disjoint",
         "kernels.faulted", "engine.advance", "engine.admit", "engine.switch",
         "engine.switch_faulted", "engine.fault_epoch", "alloc.recompute", "alloc.amend",
         "stream.push", "stream.advance", "stream.compact", "stream.checkpoint",
         "stream.restore", "sim.simulate_workload", "sim.simulate_many", "sim.stream_run",
         "sim.packets", "mcf.solve")


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _subclasses(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _count_events(tracer: Tracer, args, kwargs, stepped) -> None:
    if stepped:
        tracer.count("engine.events")


def _count_selector(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.open_name() == "core.selector":   # counted by the outer call
        return
    currents = np.asarray(args[2] if len(args) > 2 else kwargs["currents"])
    tracer.count("core.selector_rows", currents.size)
    tracer.count("core.selector_changed", int(np.count_nonzero(np.asarray(result) != currents)))


def _count_fill(tracer: Tracer, args, kwargs, refilled) -> None:
    if tracer.open_name() == "alloc.recompute":   # counted by the outer call
        return
    active = args[1] if len(args) > 1 else kwargs["active"]
    tracer.count("alloc.active_rows", len(active))
    tracer.count("alloc.refilled_rows", len(refilled))


def _count_compaction(tracer: Tracer, args, kwargs, dropped) -> None:
    if dropped:
        tracer.count("stream.compactions")


def _size_checkpoint(tracer: Tracer, args, kwargs, checkpoint) -> None:
    tracer.count("stream.checkpoints")
    tracer.count("stream.checkpoint_bytes",
                 len(pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)))


def _scenario_name(name, *args, **kwargs) -> str:
    return f"scenario.{name}"


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every catalogue entry point with ``tracer`` (undone by ``patcher``)."""
    from repro.experiments.scenario import all_scenario_specs

    # import every module binding a wrapped name now: one imported later would
    # copy the wrapper and keep it after the patcher restores the original
    all_scenario_specs()
    importlib.import_module("repro.experiments.resilient")
    hooks: Dict[str, Callable] = {"engine.step": _count_events,
                                  "core.selector": _count_selector,
                                  "alloc.recompute": _count_fill,
                                  "stream.compact": _count_compaction,
                                  "stream.checkpoint": _size_checkpoint}

    def wrapper(span: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(fn, span, hooks.get(span))

    for module, names, span in FUNCTIONS:
        for name in names:
            patcher.function(module, name, wrapper(span))
    patcher.function("repro.experiments.common", "run_experiment",
                     lambda fn: tracer.wrap(fn, _scenario_name))
    for path, names, span in METHODS:
        cls = _resolve(path)
        for name in names:
            patcher.method(cls, name, wrapper(span))
    for path, method, span in FAMILIES:
        for cls in _subclasses(_resolve(path)):
            if method in cls.__dict__:
                patcher.method(cls, method, wrapper(span))
    for path in ALLOCATORS:
        cls = _resolve(path)
        patcher.method(cls, "recompute", wrapper("alloc.recompute"))
        for name in ("add", "remove", "switch"):
            patcher.method(cls, name, wrapper("alloc.amend"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, scenarios: Sequence[str],
                  cache_stats: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (without the ``trace.*`` pair)."""
    table = span_table(tracer.spans)
    counters = tracer.counters

    def inclusive(name: str) -> float:
        totals = table.get(name)
        return totals.inclusive if totals is not None else 0.0

    out: Dict[str, float] = {f"{name}_s": inclusive(name) for name in TIMED}
    step = table.get("engine.step")
    out["engine.step_self_s"] = step.self_time if step is not None else 0.0
    out["engine.events"] = counters.get("engine.events", 0)
    paths = table.get("routing.router_paths")
    out["routing.router_paths_calls"] = paths.calls if paths is not None else 0
    fills = table.get("alloc.recompute")
    out["alloc.recompute_calls"] = fills.calls if fills is not None else 0
    out["alloc.refilled_share"] = _ratio(counters.get("alloc.refilled_rows", 0),
                                         counters.get("alloc.active_rows", 0))
    out["core.selector_rows"] = counters.get("core.selector_rows", 0)
    out["core.switch_useful_ratio"] = _ratio(counters.get("core.selector_changed", 0),
                                             counters.get("core.selector_rows", 0))
    out["stream.compactions"] = counters.get("stream.compactions", 0)
    out["stream.checkpoint_kb"] = _ratio(counters.get("stream.checkpoint_bytes", 0),
                                         counters.get("stream.checkpoints", 0)) / 1024.0
    stats = cache_stats or {}
    out["kernels.cache_hit_ratio"] = _ratio(stats.get("hits", 0),
                                            stats.get("hits", 0) + stats.get("misses", 0))
    scenario_total = 0.0
    for name in scenarios:
        seconds = inclusive(f"scenario.{name}")
        out[f"scenario.{name}_s"] = seconds
        scenario_total += seconds
    sweep = inclusive("grid.sweep")
    out["grid.overhead_s"] = sweep - scenario_total if sweep else 0.0
    return out


#: Event steps between two host-speed probes of an untraced run (about 0.5 s).
MARK_EVERY_STEPS = 500


class StepProbe:
    """Host latency of every engine event step (the untraced runs' only hook).

    Every :data:`MARK_EVERY_STEPS` event steps it also marks the clock, so a
    long simulation is scaled by the host speed of each stretch of it.
    """

    def __init__(self, clock) -> None:
        self.clock = clock

    def install(self, patcher: Patcher) -> None:
        """Time ``EngineCore.step`` into the clock; only steps that processed an event count."""
        from repro.sim.engine import EngineCore

        sample, mark = self.clock.sample, self.clock.mark
        clock = time.perf_counter
        steps = [0]

        def make(step):
            def probed(core, *args, **kwargs):
                start = clock()
                stepped = step(core, *args, **kwargs)
                if stepped:
                    sample(clock() - start)
                    steps[0] += 1
                    if steps[0] % MARK_EVERY_STEPS == 0:
                        mark()
                return stepped
            return probed

        patcher.method(EngineCore, "step", make)
