"""Basis-change tensor between bare-oscillator and normal-mode eigenstates.

The thermal state is diagonal in the normal-mode number basis; physics
questions are asked in the bare product basis.  The bridge is the
overlap tensor

    U[nm, n'm'] = <n m | n' m'>

where |n m> are eigenstates of the uncoupled pair (length scales 1 and
1/sqrt(lam)) and |n' m'> are normal-mode eigenstates (length scales
1/sqrt(omega1), 1/sqrt(omega2)) of the rotated coordinates.  Each
element is a 2-D integral of four oscillator eigenfunctions against a
shared Gaussian.  :func:`build_transform` fills the tensor by Gauss-Hermite
quadrature, folded by parity: every integrand is even or odd under
``(x1, x2) -> (-x1, -x2)``, so half of the symmetric grid is evaluated and
the elements whose four levels have an odd sum are exact zeros.  The
tensor is flattened to a ``(d*d, d*d)`` matrix, rows over bare levels
and columns over normal-mode levels.
"""
from __future__ import annotations

from itertools import product
from math import cos, sin, sqrt

import numpy as np

from .hermite import ho_eigenfunctions, _hermgauss_scaled
from .model import CircuitParams, FrequencyMethod, NormalModes

__all__ = ["build_transform"]


def build_transform(
    params: CircuitParams, modes: NormalModes, d: int = 2
) -> np.ndarray:
    """The overlap tensor as a (d*d, d*d) matrix, by quadrature.

    Row index is n*d + m over bare levels, column index is n'*d + m'
    over normal-mode levels; the second label runs fastest.

    The normal-mode coordinates are ``x1' = c*x1 + s*x2`` and
    ``x2' = c*x2 - s*x1``, with ``(c, s) = (cos phi, sin phi)`` for the
    exact angle and the linearized ``(1, phi)`` of the small-angle
    treatment.  With them substituted, the four eigenfunction Gaussians
    ``exp(-x1^2/2 - lam*x2^2/2 - omega1*x1'^2/2 - omega2*x2'^2/2)``
    combine into ``exp(-(a11*x1^2 + a22*x2^2 + 2*a12*x1*x2))`` with

        a11 = (1   + omega1*c^2 + omega2*s^2) / 2
        a22 = (lam + omega1*s^2 + omega2*c^2) / 2
        a12 = c*s*(omega1 - omega2) / 2

    which must be positive definite (ValueError otherwise, NaN included).

    At g = 0 and phi = 0 the bases coincide and the tensor is the exact
    identity.  Otherwise every entry comes from one shared grid of 2d - 1
    nodes per axis: each axis gets one table of eigenfunctions, the bare
    and normal-mode products are formed from those tables, and the
    weighted sum is one matrix product.  The integrand of every entry has
    per-axis degree at most 4(d - 1), so this order is the lowest at which
    the rule is exact; a higher one changes U only by rounding.

    The grid is folded by parity.  The Gauss-Hermite rule is symmetric,
    so flat node N - 1 - k is node k negated, bit for bit, and an
    eigenfunction product of levels (n, m) takes the factor (-1)^(n+m)
    there.  Only the first half of the nodes, through the centre, is
    evaluated, with every weight but the centre's doubled; the entries
    whose four levels have an odd sum vanish and are set to exact zeros.
    """
    if d < 2:
        raise ValueError(f"need at least two levels per mode, got d={d}")
    if params.g == 0.0 and modes.phi == 0.0:
        return np.eye(d * d)
    lam, w1, w2 = params.lam, modes.omega1, modes.omega2
    if modes.method is FrequencyMethod.EXACT:
        c, s = cos(modes.phi), sin(modes.phi)
    else:
        c, s = 1.0, modes.phi
    a11 = 0.5 * (1.0 + w1 * c * c + w2 * s * s)
    a22 = 0.5 * (lam + w1 * s * s + w2 * c * c)
    a12 = 0.5 * c * s * (w1 - w2)
    det = a11 * a22 - a12 * a12
    if not (a11 > 0 and det > 0):
        raise ValueError(f"form with a11={a11}, det={det} is not positive definite")
    t, v = _hermgauss_scaled(2 * d - 1)
    mu, rot = np.linalg.eigh(np.array([[a11, a12], [a12, a22]]))
    scale = rot @ np.diag(1.0 / np.sqrt(mu))
    half = (t.size * t.size + 1) // 2  # the last kept node is the centre
    t1, t2 = (a.ravel()[:half] for a in np.meshgrid(t, t, indexing="ij"))
    x1 = scale[0, 0] * t1 + scale[0, 1] * t2
    x2 = scale[1, 0] * t1 + scale[1, 1] * t2
    x1p = c * x1 + s * x2
    x2p = c * x2 - s * x1

    weights = (np.outer(v, v) / sqrt(det)).ravel()[:half]
    weights[:-1] *= 2.0
    f1, f2 = ho_eigenfunctions(d, x1, 1.0), ho_eigenfunctions(d, x2, 1.0 / sqrt(lam))
    bare = (f1[:, None] * f2[None, :]).reshape(d * d, half)
    f1 = ho_eigenfunctions(d, x1p, 1.0 / sqrt(w1))
    f2 = ho_eigenfunctions(d, x2p, 1.0 / sqrt(w2))
    rotated = (f1[:, None] * f2[None, :]).reshape(d * d, half)
    del f1, f2
    bare *= weights  # in place: no third d^2 x N array at the peak
    entries = bare @ rotated.T
    # zero the entries whose level sum n + m + n' + m' is odd
    levels = entries.reshape(d, d, d, d)
    for n, m, n2 in product((0, 1), repeat=3):
        levels[n::2, m::2, n2::2, (1 + n + m + n2) % 2::2] = 0.0
    return entries
