"""Host time scaled to a reference speed: the clock every benchmark time is read from.

The benchmark host is a few vCPUs of a shared machine, and its speed drifts:
the same fixed work ran up to 1.5 times slower for whole 30-second runs, on
every kind of work alike (pure Python, small-array numpy, memory-bound sorts).
Medians and low quantiles within a run cannot remove that, because whole runs
are slow.  So the clock times a fixed *probe*, work that no code of the
program runs, at every :meth:`HostClock.mark`, and scales each segment of host
time between two marks by ``REFERENCE_PROBE_S`` over the mean of the probes at
its two ends.  A reported second is then a second of a host on which the
probe takes ``REFERENCE_PROBE_S``: a change to the program moves the segments
and not the probe, a change in the host's speed moves both.

Probe time is not part of any segment's duration: a segment starts after the
probe at its start mark and ends before the probe at its end mark.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List

import numpy as np

#: Probe time of the reference host.  It sets the scale of every reported
#: time; any fixed value would do, and this one makes a reference second about
#: a second of the 2-vCPU benchmark host when other tenants leave it alone.
REFERENCE_PROBE_S = 0.0011

#: Runs of each kernel per probe; a kernel's time is their median, so one
#: preempted run does not move it.
PROBE_REPEATS = 3

_RNG = np.random.default_rng(20240917)
_VALUES = _RNG.random(4096)
_INDEX = _RNG.integers(0, 4096, 16384)
_STARTS = np.arange(0, 16384, 64)
_SMALL = _RNG.random(200)
_SMALL_INDEX = _RNG.integers(0, 200, 300)


def _interpreter() -> None:
    """Arithmetic and dict stores in a bytecode loop."""
    total, table = 0.0, {}
    for i in range(12000):
        total += i * 0.5
        table[i & 255] = total


def _objects() -> None:
    """Tuple and string allocation, then a keyed sort."""
    rows = [(i, i * 0.5, str(i & 63)) for i in range(2500)]
    rows.sort(key=lambda row: row[2])


def _small_arrays() -> None:
    """Many numpy calls on a few hundred elements: call overhead dominates."""
    for _ in range(250):
        picked = _SMALL[_SMALL_INDEX]
        picked.min()
        np.argmin(picked)


def _gathers() -> None:
    """Gathers, segment minima and argmins over arrays of a few thousand elements."""
    for _ in range(40):
        picked = _VALUES[_INDEX]
        np.minimum.reduceat(picked, _STARTS)
        np.argmin(picked)


#: The probe's kernels: the kinds of work the simulator and the routing code do.
KERNELS = (_interpreter, _objects, _small_arrays, _gathers)


def probe_seconds() -> float:
    """One probe: the geometric mean of each kernel's median time over its runs."""
    clock = time.perf_counter
    logs = 0.0
    for kernel in KERNELS:
        times = []
        for _ in range(PROBE_REPEATS):
            start = clock()
            kernel()
            times.append(clock() - start)
        logs += math.log(statistics.median(times))
    return math.exp(logs / len(KERNELS))


class HostClock:
    """Accumulates reference seconds over marked segments of host time."""

    def __init__(self, probe: Callable[[], float] = probe_seconds,
                 reference_s: float = REFERENCE_PROBE_S) -> None:
        self._probe = probe
        self.reference_s = reference_s
        self._last = probe()
        #: Host speed of every closed segment, as its scale factor.
        self.factors: List[float] = []
        #: Reference seconds, and host seconds, of all closed segments.
        self.total = 0.0
        self.host_total = 0.0
        self._pending: List[float] = []
        self._samples: List[float] = []
        self._start = time.perf_counter()

    def sample(self, host_seconds: float) -> None:
        """Record a duration measured inside the current segment (scaled at its mark)."""
        self._pending.append(host_seconds)

    def mark(self) -> float:
        """Close the current segment and start the next; returns its reference seconds."""
        end = time.perf_counter()
        probe = self._probe()
        factor = 2.0 * self.reference_s / (self._last + probe)
        self._last = probe
        seconds = (end - self._start) * factor
        self.total += seconds
        self.host_total += end - self._start
        self.factors.append(factor)
        self._samples.extend(x * factor for x in self._pending)
        self._pending.clear()
        self._start = time.perf_counter()
        return seconds

    def take_samples(self) -> List[float]:
        """The scaled samples of the segments closed since the last call (and forget them)."""
        taken, self._samples = self._samples, []
        return taken
