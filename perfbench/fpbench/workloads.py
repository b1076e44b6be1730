"""The three benchmark workloads: set-up, measured phase and output checks.

Each workload is a closed loop with one caller.  ``setup(seed, index)`` builds
every input (topology, routing, traffic, faults, simulator) of the run's
``index``-th repetition and returns a state; ``measure(state, clock)`` is the
timed phase, which may mark the :class:`~fpbench.hostclock.HostClock` between
units of work and records caller-visible latencies in it; ``check(state,
outputs)`` verifies what the measured phase produced and returns a
:class:`Check`.  Sizes are dataclass fields, so the tests run the
same code at tiny sizes.

The simulation workloads draw each repetition's traffic and faults from
``numpy.random.default_rng([seed, index])``, while the network (topology,
routing, layers, selector seed) is built from :data:`NETWORK_SEED` in every
run: one run averages over several traffic instances, the same seed always
gives the same inputs, and runs at different seeds time the same network.

For instance ``(0, 0)`` at the default sizes, outputs are compared with values
committed under ``perfbench/expected/``; for every instance the invariants
hold: each offered flow completes exactly once and no flow beats its size at
line rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fpbench.hostclock import HostClock

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "expected"
GOLDEN_ROWS = Path(__file__).resolve().parents[2] / "tests" / "experiments" / "golden" \
    / "tiny_seed0.json"

#: The (seed, repetition index) instance compared with committed values.
EXPECTED_INSTANCE = (0, 0)

#: Relative tolerance for the committed flow-completion-time statistics.
FCT_RTOL = 1e-9

#: Seed of the routing, layers and path selector of the simulation workloads.
#: It is fixed so that the spread between runs at different seeds is the
#: traffic's and the host's, not that of differently sampled layers.
NETWORK_SEED = 0

#: Service slices between two host-speed probes (about a third of a second).
MARK_EVERY_SLICES = 100


@dataclass
class Check:
    """Outcome of checking one repetition's outputs."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        """Mark ``count`` operations failed (capped at the attempted count)."""
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


def _load_expected(name: str) -> Optional[dict]:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _same(a: object, b: object) -> bool:
    """Exact equality that treats two NaNs as equal."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _flow_invariants(check: Check, offered: Dict[int, float], records: Sequence,
                     line_rate: float) -> None:
    """Each offered flow completes exactly once; no FCT beats size at line rate."""
    seen: Dict[int, int] = {}
    fast = 0
    for record in records:
        seen[record.flow_id] = seen.get(record.flow_id, 0) + 1
        if record.fct * (1 + 1e-12) < record.size_bytes / line_rate:
            fast += 1
    missing = sum(1 for fid in offered if fid not in seen)
    repeated = sum(count - 1 for count in seen.values())
    stray = sum(1 for fid in seen if fid not in offered)
    if missing:
        check.fail(missing, f"{missing} offered flows never completed")
    if repeated:
        check.fail(repeated, f"{repeated} flows completed more than once")
    if stray:
        check.fail(stray, f"{stray} completions of flows never offered")
    if fast:
        check.fail(fast, f"{fast} flows finished faster than line rate allows")


def _line_rate() -> float:
    from repro.sim.simconfig import FlowSimConfig

    return FlowSimConfig().link_rate_bps / 8.0


# --------------------------------------------------------------- flowlet_faults
@dataclass
class FlowletFaults:
    """FatPaths (layers + adaptive flowlets + NDP) on Slim Fly under a link outage."""

    q: int = 9
    rate: float = 300.0        # flows per second per communicating pair
    duration: float = 0.010    # arrival interval in simulated seconds
    fraction: float = 0.05     # share of links that fail
    expected: Optional[dict] = None

    name = "flowlet_faults"

    def __post_init__(self) -> None:
        if self.expected is None:
            self.expected = _load_expected(self.name)

    def params(self) -> dict:
        """The sizes that determine the outputs."""
        return {"q": self.q, "rate": self.rate, "duration": self.duration,
                "fraction": self.fraction}

    def setup(self, seed: int, index: int = 0):
        """Topology, FatPaths stack, Poisson permutation workload and fault schedule."""
        from repro.experiments.simcommon import build_stack
        from repro.kernels import global_cache
        from repro.sim.faults import sample_link_faults
        from repro.topologies import slim_fly
        from repro.traffic import poisson_workload, random_permutation

        global_cache().clear()
        topology = slim_fly(self.q)
        rng = np.random.default_rng([seed, index])
        pattern = random_permutation(topology.num_endpoints, rng).subsample(0.5, rng)
        workload = poisson_workload(pattern, self.rate, self.duration, rng=rng)
        faults = sample_link_faults(topology, self.fraction, 0.35 * self.duration,
                                    0.7 * self.duration, rng)
        stack = build_stack(topology, "fatpaths", seed=NETWORK_SEED)
        return {"seed": seed, "instance": (seed, index), "topology": topology,
                "stack": stack, "workload": workload, "faults": faults}

    def measure(self, state, clock: HostClock, engine: str = "engine"):
        """One ``simulate_workload`` call over the whole workload."""
        from repro.sim.flowsim import simulate_workload
        from repro.sim.simconfig import FlowSimConfig

        stack = state["stack"]
        return simulate_workload(state["topology"], stack.routing, state["workload"],
                                 selector=stack.selector, transport=stack.transport,
                                 config=FlowSimConfig(faults=state["faults"]),
                                 seed=state["seed"], engine=engine)

    def offered(self, state) -> int:
        """Operations of one repetition: the offered flows."""
        return len(state["workload"])

    @staticmethod
    def events(result) -> int:
        """Simulated events of the measured phase."""
        return int(result.meta["events"])

    @staticmethod
    def values(result) -> dict:
        """The compared outputs: exact counts, then FCT statistics."""
        summary = result.summary(percentiles=(50, 99))
        return {
            "flows": len(result.records),
            "events": int(result.meta["events"]),
            "path_switches": int(sum(r.num_path_switches for r in result.records)),
            "congestion_events": int(sum(r.congestion_events for r in result.records)),
            "reroutes": int(result.meta["reroutes"]),
            "fct_mean": summary["fct_mean"],
            "fct_p50": summary["fct_p50"],
            "fct_p99": summary["fct_p99"],
        }

    def check(self, state, result) -> Check:
        """Invariants always; committed values for the expected instance and sizes."""
        workload = state["workload"]
        check = Check(attempted=len(workload))
        offered = {f.flow_id: f.size_bytes for f in workload}
        _flow_invariants(check, offered, result.records, _line_rate())
        expected = self.expected
        if expected and state["instance"] == tuple(expected["instance"]) \
                and expected["params"] == self.params():
            got = self.values(result)
            for key, want in expected["values"].items():
                have = got[key]
                if isinstance(want, int):
                    ok = have == want
                else:
                    ok = math.isclose(have, want, rel_tol=FCT_RTOL, abs_tol=0.0)
                if not ok:
                    check.fail(check.attempted, f"{key}: got {have!r}, expected {want!r}")
        return check

    def make_expected(self, instance: Tuple[int, int] = EXPECTED_INSTANCE) -> dict:
        """Expected values from the scalar reference engine."""
        state = self.setup(*instance)
        result = self.measure(state, HostClock(), engine="reference")
        return {"instance": list(instance), "params": self.params(), "engine": "reference",
                "values": self.values(result)}


# ----------------------------------------------------------------- ecmp_service
@dataclass
class EcmpService:
    """The streaming service over the ECMP baseline, checkpointed and restored once."""

    q: int = 9
    rate: float = 400.0            # flows per second per communicating pair
    max_flows: int = 4000          # arrivals pulled from the stream
    slice: float = 20e-6           # simulated seconds per advance call
    checkpoint_every: int = 200    # advance calls between checkpoints
    window: float = 0.005          # metrics window (simulated seconds)
    expected: Optional[dict] = None

    name = "ecmp_service"

    def __post_init__(self) -> None:
        if self.expected is None:
            self.expected = _load_expected(self.name)

    def params(self) -> dict:
        """The sizes that determine the outputs."""
        return {"q": self.q, "rate": self.rate, "max_flows": self.max_flows,
                "slice": self.slice, "checkpoint_every": self.checkpoint_every,
                "window": self.window}

    def _simulator(self, state, sink):
        from repro.experiments.simcommon import build_stack
        from repro.sim.simconfig import StreamConfig
        from repro.sim.stream import StreamSimulator

        stack = build_stack(state["topology"], "ecmp", seed=NETWORK_SEED,
                            routing_cache=state["routing_cache"])
        return StreamSimulator(state["topology"], stack.routing, selector=stack.selector,
                               transport=stack.transport, seed=state["seed"],
                               stream_config=StreamConfig(window=self.window,
                                                          warmup_windows=1),
                               record_sink=sink)

    def setup(self, seed: int, index: int = 0):
        """Topology, ECMP stack, lazy Poisson stream and an empty simulator."""
        from repro.kernels import global_cache
        from repro.topologies import slim_fly
        from repro.traffic import random_permutation
        from repro.traffic.streams import poisson_flow_stream

        global_cache().clear()
        topology = slim_fly(self.q)
        rng = np.random.default_rng([seed, index])
        pattern = random_permutation(topology.num_endpoints, rng).subsample(0.5, rng)
        state = {"seed": seed, "instance": (seed, index), "topology": topology,
                 "routing_cache": {}, "records": [], "offered": {}}
        state["stream"] = poisson_flow_stream(pattern, self.rate, rng=rng,
                                              max_flows=self.max_flows)
        state["sim"] = self._simulator(state, state["records"].append)
        return state

    def measure(self, state, clock: HostClock, restore: bool = True):
        """Drive the service slice by slice; returns the final summary.

        Each slice pushes the arrivals that start before its end, then advances
        strictly below it.  Every ``checkpoint_every`` slices the caller takes a
        checkpoint; the first one taken after half the arrivals were pushed is
        restored into a fresh simulator, which carries on.  Once the stream is
        exhausted, ``finish`` drains the flows still active.  The host time
        of every push + advance slice is recorded in ``clock``.
        """
        import time

        now = time.perf_counter
        sample = clock.sample
        sim, stream, offered = state["sim"], state["stream"], state["offered"]
        pending = next(stream, None)
        restored = not restore
        k = 0
        while pending is not None:
            k += 1
            horizon = k * self.slice
            batch = []
            while pending is not None and pending.start_time < horizon:
                batch.append(pending)
                pending = next(stream, None)
            start = now()
            if batch:
                sim.push(batch)
            sim.advance(horizon, inclusive=False)
            sample(now() - start)
            for flow in batch:
                offered[flow.flow_id] = flow.size_bytes
            if k % MARK_EVERY_SLICES == 0:
                clock.mark()
            if k % self.checkpoint_every == 0:
                snapshot = sim.checkpoint()
                if not restored and len(offered) * 2 >= self.max_flows:
                    sim = self._simulator(state, state["records"].append)
                    sim.restore(snapshot)
                    restored = True
        state["sim"] = sim
        state["restored"] = restored
        return sim.finish()

    def offered(self, state) -> int:
        """Operations of one repetition: the arrivals pulled from the stream."""
        return self.max_flows

    @staticmethod
    def events(summary) -> int:
        """Simulated events of the measured phase."""
        return int(summary["events"])

    def check(self, state, summary) -> Check:
        """Invariants always; the uninterrupted run's summary for the expected instance."""
        offered = state["offered"]
        check = Check(attempted=max(len(offered), 1))
        _flow_invariants(check, offered, state["records"], _line_rate())
        if not summary["arrivals"] == summary["completions"] == len(offered):
            check.fail(check.attempted, f"arrivals {summary['arrivals']}, completions "
                       f"{summary['completions']} and pushed {len(offered)} disagree")
        if not state.get("restored"):
            check.fail(check.attempted, "the checkpoint was never restored")
        expected = self.expected
        if expected and state["instance"] == tuple(expected["instance"]) \
                and expected["params"] == self.params():
            want = expected["summary"]
            wrong = [key for key in want if not _same(summary.get(key), want[key])]
            if wrong or set(summary) != set(want):
                check.fail(check.attempted, "restored summary differs from the "
                           f"uninterrupted run on {wrong or sorted(set(summary) ^ set(want))}")
        return check

    def make_expected(self, instance: Tuple[int, int] = EXPECTED_INSTANCE) -> dict:
        """The summary of an uninterrupted run (no restore) of ``instance``."""
        state = self.setup(*instance)
        summary = self.measure(state, HostClock(), restore=False)
        return {"instance": list(instance), "params": self.params(), "restored": False,
                "summary": json.loads(json.dumps(summary))}


# ---------------------------------------------------------------- registry_tiny
@dataclass
class RegistryTiny:
    """Every registry scenario at tiny scale, seed 0, serially through the grid."""

    names: Optional[Tuple[str, ...]] = None   # None: the whole registry

    name = "registry_tiny"

    @property
    def scenarios(self) -> Tuple[str, ...]:
        """Scenario names in registry order."""
        if self.names is not None:
            return tuple(self.names)
        from repro.experiments.scenario import SCENARIO_MODULES

        return tuple(SCENARIO_MODULES)

    def setup(self, seed: int, index: int = 0):
        """Grid cells at tiny scale and scenario seed 0, in registry order.

        Scenarios with a topology split axis are split into one cell per family
        (``split_heavy_cells``), so no cell runs for more than a few seconds.
        The registry's inputs are fixed: ``seed`` and ``index`` change nothing,
        so every run is compared with the golden fixture and runs the cells in
        the same order (filling the shared path cache in the same order).
        """
        from repro.experiments.grid import make_grid, split_heavy_cells
        from repro.kernels import global_cache

        global_cache().clear()
        cells = split_heavy_cells(make_grid(list(self.scenarios), scales=("tiny",),
                                            seeds=(0,)))
        return {"seed": seed, "cells": cells}

    def measure(self, state, clock: HostClock):
        """A serial sweep through ``run_experiment_grid``, one cell per call.

        ``clock`` is marked after every cell, so a long sweep is scaled by the
        host speed cell by cell, not by its speed at the two ends.
        """
        from repro.experiments.grid import run_experiment_grid

        results = []
        for cell in state["cells"]:
            results += run_experiment_grid([cell], jobs=None)
            clock.mark()
        return results

    def offered(self, state) -> int:
        """Operations of one repetition: the scenarios."""
        return len({cell.name for cell in state["cells"]})

    @staticmethod
    def events(results) -> None:
        """Counted by the harness's step probe, not by the sweep's outputs."""
        return None

    def check(self, state, results) -> Check:
        """Every scenario's cells succeed and their merged rows equal the golden fixture."""
        from repro.experiments.grid import combine_cell_results
        from repro.experiments.scenario import normalized_rows

        golden = json.loads(GOLDEN_ROWS.read_text())
        cells = state["cells"]
        check = Check(attempted=self.offered(state))
        if len(results) != len(cells):
            check.fail(check.attempted, f"{len(results)} results for {len(cells)} cells")
            return check
        by_name: Dict[str, list] = {}
        for result in results:
            by_name.setdefault(result.cell.name, []).append(result)
        for name, group in by_name.items():
            errors = [r.error for r in group if not r.ok]
            if errors:
                check.fail(1, f"{name}: {errors[0]}")
                continue
            merged = combine_cell_results(group)
            if len(merged) != 1 or json.loads(json.dumps(
                    normalized_rows(merged[0].rows))) != golden.get(name):
                check.fail(1, f"{name}: rows differ from the golden fixture")
        return check


WORKLOADS = {"flowlet_faults": FlowletFaults, "ecmp_service": EcmpService,
             "registry_tiny": RegistryTiny}

