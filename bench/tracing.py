"""Spans and counts recorded from outside the package.

Each hook replaces one name in the module (or class) that looks it up at
call time, so the package itself carries no timing code. A span's self
time is its duration minus the time covered by the spans it caused. Every
span adds its self time to one running clock when it ends, so the clock's
advance while a span is open is exactly the summed duration of its direct
children; no stack of open spans is needed. Totals are kept per span name
for one invocation at a time and read out by ``Tracer.snapshot``.

A hook whose target no longer exists is reported as missing instead of
failing, so deleting or renaming a private helper in the package leaves
the benchmark running and marks the metrics that depended on it.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` (``name`` or ``Class.name``) inside ``module``.

    With ``timed`` false the hook only counts calls, for functions called
    thousands of times per invocation where a span would cost more than
    the work it measures. ``on_result(tracer, args, result)`` runs after
    each timed call, outside the span.
    """

    span: str
    module: str
    target: str
    timed: bool = True
    on_result: Callable[["Tracer", tuple, object], None] | None = None


class Tracer:
    def __init__(self) -> None:
        # span -> [self seconds, total seconds, calls]; hooks sharing a span share the list.
        self._cells: dict[str, list] = {}
        self._clock = [0.0]
        self.reset()

    def reset(self) -> None:
        for cell in self._cells.values():
            cell[:] = [0.0, 0.0, 0]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def _cell(self, span: str) -> list:
        return self._cells.setdefault(span, [0.0, 0.0, 0])

    def _timed(self, hook: Hook, fn: Callable) -> Callable:
        cell, clock, on_result = self._cell(hook.span), self._clock, hook.on_result

        def wrapper(*args, **kwargs):
            covered = clock[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - (clock[0] - covered)
                clock[0] += own
                cell[0] += own
                cell[1] += duration
                cell[2] += 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _counted(self, hook: Hook, fn: Callable) -> Callable:
        cell = self._cell(hook.span)

        def wrapper(*args, **kwargs):
            cell[2] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, hooks: tuple[Hook, ...]) -> Iterator[set[str]]:
        """Install every hook that has a target; yield the spans that lack one.

        The original attributes are restored on exit, even after an error.
        """
        missing: set[str] = set()
        restore: list[tuple[object, str, object]] = []
        try:
            for hook in hooks:
                owner_path, _, attr = hook.target.rpartition(".")
                try:
                    owner = importlib.import_module(hook.module)
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    missing.add(hook.span)
                    continue
                wrap = self._timed if hook.timed else self._counted
                setattr(owner, attr, wrap(hook, original))
                restore.append((owner, attr, original))
            yield missing
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def snapshot(self) -> dict[str, Counter]:
        """Per-span self and total seconds and calls, plus the counts and maxima."""
        return {
            "self_s": Counter({span: cell[0] for span, cell in self._cells.items()}),
            "total_s": Counter({span: cell[1] for span, cell in self._cells.items()}),
            "calls": Counter({span: cell[2] for span, cell in self._cells.items()}),
            "counts": Counter(self.counts),
            "maxima": Counter(self.maxima),
        }
