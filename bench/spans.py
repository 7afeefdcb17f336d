"""Span tracing of ``qubit_entropy`` from the outside.

The tracer wraps every public function of the package's modules at
every place a ``qubit_entropy`` module holds a reference to it (so
``state.build_transform`` is traced as well as
``transform.build_transform``), plus ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``.  Each call records a span: name, start,
end and the index of the span that was open when it began.  Nothing
inside the package changes; the wrappers are removed on exit.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("model", "hermite", "transform", "state", "entropy", "cli")
KERNELS = ("eigh", "eigvalsh")


class Tracer:
    """Records spans while installed; ``with tracer:`` installs it.

    ``clock`` times the spans; the benchmark passes one that stops while
    the drift meter's kernel samples run.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.eig_n3 = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, kernel: bool = False):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if kernel:
                a = np.asarray(args[0])
                self.eig_n3 += math.prod(a.shape[:-2]) * a.shape[-1] ** 3
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"qubit_entropy.{short}")
            for attr in getattr(module, "__all__", ()):
                func = getattr(module, attr, None)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    originals[id(func)] = (f"{short}.{attr}", func)
        wrappers = {key: self._wrap(name, func) for key, (name, func) in originals.items()}
        for name, module in sorted(sys.modules.items()):
            if name != "qubit_entropy" and not name.startswith("qubit_entropy."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    self._patch(module, attr, wrappers[id(value)])
        for kernel in KERNELS:
            func = getattr(np.linalg, kernel)
            self._patch(np.linalg, kernel, self._wrap(f"linalg.{kernel}", func, kernel=True))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time in seconds.

    Self time is the span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(tracer.names)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, name in enumerate(tracer.names):
        duration = tracer.end[i] - tracer.start[i]
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[i]
    return dict(stats)
