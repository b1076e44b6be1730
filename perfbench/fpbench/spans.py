"""In-memory spans, outside-in patching and self-time arithmetic.

A :class:`Tracer` records one span per call of every wrapped function: name,
start, end, parent span and run id.  Spans stay in memory while the run goes
on and are written out (:meth:`Tracer.write_jsonl`) when it ends.

:class:`Patcher` installs wrappers from the outside: it replaces a function in
every loaded ``repro`` module that binds it (so ``repro.sim.engine.faulted_kernels``
is patched as well as ``repro.kernels.dirtyregion.faulted_kernels``), or a method
in a class ``__dict__``, and undoes every replacement on :meth:`Patcher.restore`.

:func:`span_table` turns a span list into per-name totals.  A span nested under
a span of the *same* name (a subclass method calling ``super()``, one topology
generator calling another) is not counted again, so a name's inclusive time never
exceeds the wall time it covers.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

#: One recorded span: [name, start, end, parent index (-1 for a root), run id].
Span = List[object]

Namer = Union[str, Callable[..., str]]
OnExit = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans and counters for the calls of wrapped functions."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def open_name(self) -> Optional[str]:
        """Name of the innermost span still open (``None`` outside every span)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> Span:
        stack = self._stack
        record: Span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: Span) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: Namer, on_exit: Optional[OnExit] = None) -> Callable:
        """``fn`` wrapped so that every call records one span.

        ``name`` is a span name or a callable ``(*args, **kwargs) -> name``.
        ``on_exit(tracer, args, kwargs, result)`` runs after the span closed, so
        its own cost (counting rows, sizing a checkpoint) stays outside the span.
        A generator function's iterator is wrapped too: each ``next`` is a span.
        """
        tracer = self
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            record = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            if generator:
                return _TracedIterator(tracer, label, result)
            return result

        return traced

    def write_jsonl(self, out: TextIO) -> None:
        """Write every span to ``out`` as one JSON object per line."""
        for index, (name, start, end, parent, run) in enumerate(self.spans):
            out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                  "parent": parent, "run": run}))
            out.write("\n")


class _TracedIterator:
    """Iterator proxy whose every ``next`` is a span of the tracer."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        record = self._tracer._open(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer._close(record)


class Patcher:
    """Replaces functions and methods in place and puts them back on restore."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str,
                 make: Callable[[Callable], Callable]) -> int:
        """Wrap ``module.attr`` in every loaded ``repro`` module binding it.

        Returns the number of bindings replaced (0 and a ``missing`` entry when
        the target does not exist).
        """
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return 0
        wrapped = make(original)
        replaced = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
                    replaced += 1
        return replaced

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Wrap the method ``attr`` defined in ``cls.__dict__`` (not inherited)."""
        original = cls.__dict__.get(attr)
        if original is None or not callable(original):
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return False
        self._set(cls, attr, make(original))
        return True

    def restore(self) -> None:
        """Undo every replacement, last first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class NameTotals:
    """Aggregates of one span name."""

    calls: int = 0          # spans not nested under a span of the same name
    inclusive: float = 0.0  # summed duration of those spans
    self_time: float = 0.0  # summed self time of every span of the name


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def span_table(spans: Sequence[Span]) -> Dict[str, NameTotals]:
    """Per-name calls, inclusive time (same-name nesting counted once) and self time."""
    selfs = self_times(spans)
    table: Dict[str, NameTotals] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        totals = table.get(name)
        if totals is None:
            totals = table[name] = NameTotals()
        totals.self_time += selfs[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals.calls += 1
            totals.inclusive += end - start
    return table


def root_time(spans: Iterable[Span], after: float = float("-inf")) -> float:
    """Summed duration of root spans that start at or after ``after``."""
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0 and start >= after)
