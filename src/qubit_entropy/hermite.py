"""Oscillator eigenfunctions, tabulated level by level.

They serve the overlap integrals between two product bases of oscillator
eigenfunctions: each integrand is a product of four eigenfunctions, whose
Gaussian factors combine into one correlated 2-D Gaussian, and
`transform` integrates it with a Gauss-Hermite rule on tables from here.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["ho_eigenfunctions"]


def ho_eigenfunctions(
    d: int, x: np.ndarray | float, length_scale: float
) -> np.ndarray:
    """The first ``d`` oscillator eigenfunctions, ``psi_0 ... psi_{d-1}``, at x.

    One pass of the Hermite three-term recurrence fills the
    ``(d, *x.shape)`` table and the Gaussian factor is computed once.
    Row n is ``norm_n / sqrt(length_scale) * exp(-y^2/2) * H_n(y)`` for
    ``y = x / length_scale`` and ``norm_n = (2**n n! sqrt(pi))**-0.5``,
    orthonormal in x for a fixed length scale.  Row n does not depend on
    ``d``: it is the same, bit for bit, in every table with more than n rows.
    """
    if d < 1:
        raise ValueError(f"need at least one level, got d={d}")
    if not length_scale > 0:
        raise ValueError(f"length scale must be positive, got {length_scale}")
    y = np.asarray(x, dtype=float) / length_scale
    gauss = np.exp(-0.5 * y * y)
    out = np.empty((d, *y.shape))
    h_prev = np.zeros_like(y)
    h = np.ones_like(y)
    for n in range(d):
        if n:
            h_prev, h = h, 2.0 * y * h - 2.0 * (n - 1) * h_prev
        norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        row = out[n, ...]
        np.multiply(norm / math.sqrt(length_scale), gauss, out=row)
        row *= h
    return out
