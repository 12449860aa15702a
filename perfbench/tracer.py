"""Benchmark-owned spans around the program's public functions.

A :class:`Tracer` replaces a function at the binding its caller looks
up (a class attribute, or a module global imported by name), times each
call, and restores the original on :meth:`Tracer.uninstall`.  Spans nest
per thread, so every name gets a *self* time (its duration minus the
wrapped calls beneath it) and each thread's *top-level* time says how
much of the run any wrapped layer covered.  Everything stays in memory
until :meth:`Tracer.snapshot`.

Tracers are installed only in traced runs (``--trace 1``); untraced runs
execute the program's own functions unmodified.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # thread name -> seconds inside some outermost wrapped call
        self.top_level: dict[str, float] = defaultdict(float)
        self._cells: dict[str, list[int]] = {}
        # EvaluatorStats of every PlacementEvaluator built while installed
        self.evaluator_stats: list[Any] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, began: float) -> float:
        elapsed = time.perf_counter() - began
        stack = self._stack()
        child = stack.pop()
        with self._lock:
            record = self.spans[name]
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - child
            if stack:
                stack[-1] += elapsed
            else:
                self.top_level[threading.current_thread().name] += elapsed
        return elapsed

    # -- installation -------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> Callable:
        own = vars(owner).get(attr, _MISSING) if isinstance(owner, type) else _MISSING
        original = getattr(owner, attr) if own is _MISSING else own
        self._undo.append((owner, attr, own if isinstance(owner, type) else original))
        setattr(owner, attr, wrapper)
        return original

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[tuple, dict, Any, float], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(args, kwargs, result, seconds)`` runs once the call
        returned, for counters derived from arguments or results.
        """
        tracer = self
        original: Callable = _MISSING  # type: ignore[assignment]

        def wrapper(*args, **kwargs):
            tracer._stack().append(0.0)
            began = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = tracer._close(name, began)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        original = self._replace(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot paths)."""
        cell = self._cells.setdefault(name, [0])
        original: Callable = _MISSING  # type: ignore[assignment]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        original = self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced binding (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        """Forget everything recorded so far (bindings stay installed)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.samples.clear()
            self.top_level.clear()
            for cell in self._cells.values():
                cell[0] = 0

    # -- results ------------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return int(self.spans[name][0]) if name in self.spans else 0

    def counted(self, name: str) -> int:
        return self._cells[name][0] if name in self._cells else 0

    def snapshot(self) -> dict[str, Any]:
        """Plain-data copy of everything recorded (JSON-serializable)."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "top_level": dict(self.top_level),
                "cells": {k: v[0] for k, v in self._cells.items()},
            }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "Tracer":
        tracer = cls()
        for name, record in data["spans"].items():
            tracer.spans[name] = list(record)
        tracer.counters.update(data["counters"])
        for name, values in data["samples"].items():
            tracer.samples[name] = list(values)
        tracer.top_level.update(data["top_level"])
        tracer._cells = {k: [v] for k, v in data["cells"].items()}
        return tracer
