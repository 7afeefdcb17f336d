"""Reference kernel and drift meter: benchmark times corrected for host speed.

On a shared VM the speed of the host drifts by tens of percent over
fractions of a second, for every process alike.  The reference kernel
is a fixed piece of plain numpy and Python work that imports nothing
from ``qubit_entropy``, so no change to the package can move it.  It
mixes the kinds of work the pipeline does: tiny LAPACK calls wrapped in
Python, pure-Python formatting, elementwise numpy over a quadrature-size
grid, and a medium ``eigh``.

``DriftMeter.run`` times a region of program work and samples the
kernel just before it, just after it and, on a wall-clock timer, inside
it (the timer's signal handler runs the kernel between two bytecodes of
the program and its time is subtracted from the region).  The region's
time is then rescaled by ``(REF_NOMINAL_S / mean(kernel samples)) ** e``,
with ``e`` the workload's elasticity (below), so a corrected time is
in seconds at the host speed at which ``REF_NOMINAL_S`` was recorded.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Median kernel time on the machine the benchmark was built on (2-core
# x86-64 VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
# thread).  It only sets the scale of corrected times; comparisons
# between commits hold for any fixed value.
REF_NOMINAL_S = 0.0065

# How strongly each workload's time follows the kernel's: the slope of
# log(pass time) on log(kernel time) over the passes of one process,
# pooled over six processes per workload on the same machine
# (fit_calib.py).  Interpreter-bound work slows more than the kernel
# when the host is busy, LAPACK-bound work less; with an exponent of 1
# for all, corrected medians of separate runs spread by 9-10 % on
# fine-sweep and deep-truncation, with these values by 2-5 %.  Set-up,
# which is process start and imports, keeps 1.
ELASTICITY = {"fine-sweep": 1.29, "deep-truncation": 0.68, "circuit-scan": 0.95}

# Kernel samples inside a region are this far apart in wall time.
SAMPLE_INTERVAL_S = 0.1

# bound now, so that the tracer's wrappers never see the kernel's calls
_eigvalsh = np.linalg.eigvalsh
_eigh = np.linalg.eigh

_SMALL = [
    (lambda a: a @ a.T + np.eye(6))(np.cos(np.outer(np.arange(6) + i, np.arange(6) + 1)))
    for i in range(16)
]
_GRID = np.linspace(-6.0, 6.0, 4096)
_BIG = (lambda b: b @ b.T + 120.0 * np.eye(120))(
    np.cos(np.outer(np.arange(120), np.arange(120)) / 7.0)
)


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        w = _eigvalsh(_SMALL[i % 16])
        acc += float(np.exp(-w / (1.0 + i)).sum())
    for i in range(250):
        row = {"T": i * 0.001, "q": 1.5, "S": acc / (i + 1)}
        acc += len(",".join(f"{row[key]:.12g}" for key in row))
    for i in range(25):
        y = _GRID * (1.0 + 0.001 * i)
        acc += float((np.exp(-0.5 * y * y) * (4.0 * y * y - 2.0)).sum())
    w, _v = _eigh(_BIG)
    acc += float(w[0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite checksum")
    return elapsed


class DriftMeter:
    """Times regions of program work against the reference kernel."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.paused = 0.0
        self.samples: list[float] = []
        self._busy = False

    def clock(self) -> float:
        """Wall time minus the time the in-region kernel samples took."""
        return time.perf_counter() - self.paused

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(reference_kernel())
        finally:
            self.paused += time.perf_counter() - start
            self._busy = False

    def run(self, work: Callable[[], T]) -> tuple[T, float, list[float]]:
        """Run ``work``; return its result, its program time and the kernel samples."""
        self.samples = [reference_kernel()]
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = self.clock() - start
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(reference_kernel())
        return result, elapsed, self.samples


def correction(samples: list[float], elasticity: float = 1.0) -> float:
    """Factor that rescales a time measured while the kernel took ``samples``."""
    return (REF_NOMINAL_S / statistics.fmean(samples)) ** elasticity
