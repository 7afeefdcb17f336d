"""Oscillator eigenfunctions, tabulated level by level.

They serve the overlap integrals between two product bases of oscillator
eigenfunctions: each integrand is a product of four eigenfunctions, whose
Gaussian factors combine into one correlated 2-D Gaussian, and
`transform` integrates it with a Gauss-Hermite rule on tables from here.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["ho_eigenfunctions"]


def ho_eigenfunctions(
    d: int, x: np.ndarray | float, length_scale: np.ndarray | float
) -> np.ndarray:
    """The first ``d`` oscillator eigenfunctions, ``psi_0 ... psi_{d-1}``, at x.

    One pass of the Hermite three-term recurrence fills the ``(d, *shape)``
    table, ``shape`` that of x and ``length_scale`` broadcast together, and
    the Gaussian factor is computed once.  Row n is
    ``norm_n / sqrt(length_scale) * exp(-y^2/2) * H_n(y)`` for
    ``y = x / length_scale`` and ``norm_n = (2**n n! sqrt(pi))**-0.5``,
    orthonormal in x for a fixed length scale.  An array of length scales
    tabulates several grids in one call: each entry is the same, bit for
    bit, as in the table of its own grid and scale.  Row n does not depend
    on ``d``: it is the same, bit for bit, in every table with more than n
    rows.  ``d`` must be an integer (ValueError otherwise).
    """
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"need an integer of at least one level, got d={d}")
    scale = np.asarray(length_scale, dtype=float)
    if not (scale > 0).all():
        raise ValueError(f"length scale must be positive, got {length_scale}")
    y = np.asarray(x, dtype=float) / scale
    two_y = 2.0 * y
    norms = [
        1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)) for n in range(d)
    ]
    # row n is (norm_n / sqrt(scale)) * gauss, then times H_n: one rounding
    # order for every grid and scale, which the bit-for-bit claims rest on
    factors = np.array(norms).reshape(d, *(1,) * y.ndim) / np.sqrt(scale)
    out = factors * np.exp(-0.5 * y * y)
    # H_0 = 1 and H_1 = 2y: 2y * 1 - 0 * 0 is 2y exactly
    h_prev, h = 1.0, two_y
    for n in range(1, d):
        if n > 1:
            h_prev, h = h, two_y * h - 2.0 * (n - 1) * h_prev
        out[n] *= h
    return out
