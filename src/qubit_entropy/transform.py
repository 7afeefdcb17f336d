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
quadrature on a grid mapped through the triangular factor of that
Gaussian, so the bare x2 depends on one node index only and the sum
factorizes into two matrix products, one per axis.  The sum is folded by
parity: every integrand is even or odd under ``(x1, x2) -> (-x1, -x2)``,
so half of the symmetric grid is evaluated, and the elements whose four
levels have an odd sum vanish: the tensor is kept as two blocks, one per
parity of ``n + m``, rows over bare and columns over normal-mode levels.
"""
from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from .hermite import ho_eigenfunctions
from .model import NormalModes

__all__ = ["build_transform", "parity_levels"]


@lru_cache(maxsize=None)
def parity_levels(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The levels ``n*d + m`` of even and of odd ``n + m``, each ascending
    and read-only, so level L is at position L // 2: block p of
    :func:`build_transform` holds the rows and columns
    ``parity_levels(d)[p]`` of the dense ``(d*d, d*d)`` matrix, whose
    other entries are zero."""
    level_sum = np.add.outer(np.arange(d), np.arange(d)).ravel()
    levels = tuple(np.flatnonzero(level_sum % 2 == p) for p in (0, 1))
    for array in levels:
        array.flags.writeable = False
    return levels


@lru_cache(maxsize=None)
def _hermgauss_scaled(order: int) -> tuple[np.ndarray, np.ndarray]:
    # v = w * exp(t^2) are the weights for integrating a bare function;
    # the log-space product avoids underflow of w at high order.
    t, w = np.polynomial.hermite.hermgauss(order)
    v = np.exp(np.log(w) + t * t)
    return t, v


def build_transform(modes: NormalModes, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The overlap tensor by quadrature, as its two parity blocks
    ``(u_even, u_odd)``: block p holds the overlaps between the bare levels
    ``n*d + m`` (rows) and the normal-mode levels ``n'*d + m'`` (columns)
    of parity p, in the order of :func:`parity_levels`.

    The normal-mode coordinates are ``x1' = c*x1 + s*x2`` and
    ``x2' = c*x2 - s*x1``, with ``(c, s) = modes.rotation``.  With them
    substituted, the four eigenfunction Gaussians
    ``exp(-x1^2/2 - lam*x2^2/2 - omega1*x1'^2/2 - omega2*x2'^2/2)``
    combine into ``exp(-(a11*x1^2 + a22*x2^2 + 2*a12*x1*x2))`` with

        a11 = (1   + omega1*c^2 + omega2*s^2) / 2
        a22 = (lam + omega1*s^2 + omega2*c^2) / 2
        a12 = c*s*(omega1 - omega2) / 2

    which must be positive definite, and lam and both mode frequencies
    must be positive (ValueError otherwise, NaN included).

    At g = 0 and phi = 0 the bases coincide and each block is the exact
    identity.  Otherwise every entry comes from one tensor-product
    Gauss-Hermite rule of 2d - 1 nodes per axis.  The integrand of every
    entry has per-axis degree at most 4(d - 1), so this order is the
    lowest at which the rule is exact; a higher one changes U only by
    rounding.

    The nodes ``(t[k1], t[k2])`` are mapped through the triangular factor
    of the Gaussian, ``t[k1] = sqrt(a11)*(x1 + a12/a11*x2)`` and
    ``t[k2] = sqrt(det/a11)*x2``, so the bare x2 depends on k2 alone and
    the sum factorizes: for each k2, one matrix product sums the bare
    mode-1 and both normal-mode eigenfunctions over k1, and a second
    product sums the bare mode-2 eigenfunctions over k2.

    The k2 axis is folded by parity.  The rule is symmetric and the map
    linear, so node ``(N-1-k1, N-1-k2)`` is node ``(k1, k2)`` negated,
    bit for bit, where each integrand takes the factor (-1)^(n+m+n'+m').
    Only k2 up to the centre is evaluated, with every weight but the
    centre's doubled.  The entries whose four levels have an odd sum
    vanish, so each parity p forms its own second product, over its
    columns and, for each n, the bare mode-2 rows m of parity p - n.
    """
    if d < 2:
        raise ValueError(f"need at least two levels per mode, got d={d}")
    lam, w1, w2 = modes.lam, modes.omega1, modes.omega2
    c, s = modes.rotation
    a11 = 0.5 * (1.0 + w1 * c * c + w2 * s * s)
    a22 = 0.5 * (lam + w1 * s * s + w2 * c * c)
    a12 = 0.5 * c * s * (w1 - w2)
    det = a11 * a22 - a12 * a12
    if not (a11 > 0 and det > 0):
        raise ValueError(f"form with a11={a11}, det={det} is not positive definite")
    for name, value in (("lam", lam), ("omega1", w1), ("omega2", w2)):
        if not value > 0:
            raise ValueError(f"frequency {name}={value} is not positive")
    if modes.g == 0.0 and modes.phi == 0.0:
        return tuple(np.eye(len(levels)) for levels in parity_levels(d))
    t, v = _hermgauss_scaled(2 * d - 1)
    # k2 runs through the centre node, k1 over all nodes: grids are (k2, k1)
    x2 = t[:d] / sqrt(det / a11)
    x1 = t / sqrt(a11) - (a12 / a11) * x2[:, None]
    x1p = c * x1 + s * x2[:, None]
    x2p = c * x2[:, None] - s * x1

    weights = v[:d] / sqrt(det)
    weights[:-1] *= 2.0
    # one table for the four coordinates: per k2, the k1 nodes of x1, x1'
    # and x2' side by side, then x2, each column with its length scale.
    # bare1 takes its weights in place and rotated2 is copied out, so the
    # table is freed before inner is formed.
    nodes = len(t)
    scales = np.repeat([1.0, 1.0 / sqrt(w1), 1.0 / sqrt(w2), 1.0 / sqrt(lam)], [nodes] * 3 + [1])
    table = ho_eigenfunctions(d, np.concatenate([x1, x1p, x2p, x2[:, None]], axis=1), scales)
    bare1, rotated1 = table[:, :, :nodes], table[:, :, nodes:2 * nodes]
    bare1 *= v
    rotated2, bare2 = table[:, :, 2 * nodes:-1].copy(), table[:, :, -1] * weights
    # sum over k1: (k2, n n', k1) @ (k2, k1, m') for each k2
    pairs = bare1.transpose(1, 0, 2)[:, :, None] * rotated1.transpose(1, 0, 2)[:, None]
    del bare1, rotated1, table
    inner = pairs.reshape(d, d * d, -1) @ rotated2.transpose(1, 2, 0)
    del pairs
    # sum over k2 per parity p: (m, k2) @ (k2, n' m') for each n, on the
    # columns n' m' of parity p, all n of one parity in one product
    inner = inner.reshape(d, d, d * d)
    blocks = []
    for p, levels in enumerate(parity_levels(d)):
        columns, block = inner.take(levels, axis=2), np.empty((len(levels), len(levels)))
        odd = levels // d % 2 == 1
        for n, rows in ((0, ~odd), (1, odd)):
            product = bare2[(p - n) % 2::2] @ columns[:, n::2].transpose(1, 0, 2)
            block[rows] = product.reshape(-1, len(levels))
        blocks.append(block)
    return tuple(blocks)
