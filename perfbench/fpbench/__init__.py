"""Benchmark harness for the FatPaths reproduction (see ``perfbench/README.md``).

* :mod:`fpbench.spans` — in-memory span recorder, function/method patching and
  the self-time arithmetic over a span tree.
* :mod:`fpbench.layers` — the outside-in catalogue of ``repro`` layer entry
  points the traced run wraps, and the per-layer metrics derived from its spans.
* :mod:`fpbench.hostclock` — the clock every time is read from: host seconds
  scaled to a reference speed by a fixed probe run at every mark.
* :mod:`fpbench.workloads` — the three workloads (set-up, measured phase, checks).
* :mod:`fpbench.harness` — the run loop: repetitions, statistics, result line.
"""
