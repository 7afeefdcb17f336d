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
parity of ``n + m``, rows over bare and columns over normal-mode levels,
and each block's second product forms only its own rows.

The layout of the blocks is stated once, here: every index that the
build and the later stages derive from the level counts alone (the rows
of a parity, the leading block of a truncation, the factors of the
marginals) comes from a cache keyed by those counts, built once per
process and read-only.
"""
from __future__ import annotations

import numbers
from functools import lru_cache
from math import sqrt

import numpy as np

from .hermite import ho_eigenfunctions
from .model import NormalModes

__all__ = ["build_transform", "parity_levels"]


def _read_only(items) -> tuple:
    # arrays are locked, anything else (a slice) is kept as it is
    for item in items:
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return tuple(items)


# typed: a float d, which the body rejects, never finds an integer's entry
@lru_cache(maxsize=None, typed=True)
def parity_levels(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The levels ``n*d + m`` of even and of odd ``n + m``, each ascending
    and read-only, so level L is at position L // 2: block p of
    :func:`build_transform` holds the rows and columns
    ``parity_levels(d)[p]`` of the dense ``(d*d, d*d)`` matrix, whose
    other entries are zero.  ``d`` must be an integer (ValueError
    otherwise)."""
    if not isinstance(d, numbers.Integral):
        raise ValueError(f"the level count must be an integer, got d={d}")
    level_sum = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return _read_only([np.flatnonzero(level_sum % 2 == p) for p in (0, 1)])


@lru_cache(maxsize=None)
def _own_rows(d: int) -> tuple:
    # Row n of block p pairs with the bare mode-2 levels m of parity p - n:
    # per p, a (d, ceil(d/2)) table of them, ascending, whose rows with one
    # level fewer (odd d) are padded with level d - 1.  Then, per p, the
    # positions of the unpadded entries in the flattened table: the rows of
    # block p in the order of parity_levels, or a whole slice where no row
    # is padded (even d), so that indexing by it makes a view, not a copy.
    n = np.arange(d)[:, None]
    m = np.array([(p + n) % 2 + 2 * np.arange((d + 1) // 2) for p in (0, 1)])
    return _read_only([np.minimum(m, d - 1), *(
        slice(None) if (own < d).all() else np.flatnonzero(own < d) for own in m
    )])


@lru_cache(maxsize=None)
def leading_positions(d: int, d_small: int) -> tuple[np.ndarray, np.ndarray]:
    """Per parity p, the read-only positions in block p of a d-level U of
    the levels ``n*d + m`` with ``n, m < d_small``, in the order of
    ``parity_levels(d_small)[p]``: the leading block of the d-level build."""
    small = parity_levels(d_small)
    return _read_only([(levels // d_small * d + levels % d_small) // 2 for levels in small])


@lru_cache(maxsize=None)
def complement_positions(d: int, d_small: int) -> tuple[np.ndarray, np.ndarray]:
    """Per parity p, the read-only positions in block p of a d-level U that
    ``leading_positions(d, d_small)[p]`` leaves out, ascending."""
    positions = []
    for levels, kept in zip(parity_levels(d), leading_positions(d, d_small)):
        rest = np.ones(len(levels), dtype=bool)
        rest[kept] = False
        positions.append(np.flatnonzero(rest))
    return _read_only(positions)


@lru_cache(maxsize=None)
def diagonal_positions(d_small: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only positions, each ascending, of the on- and of the
    off-diagonal entries in a row holding both C-ordered parity blocks of
    a d_small-level matrix end to end."""
    on = np.concatenate([
        np.eye(len(levels), dtype=bool).ravel() for levels in parity_levels(d_small)
    ])
    return _read_only([np.flatnonzero(on), np.flatnonzero(~on)])


@lru_cache(maxsize=None)
def marginal_positions(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positions of the factors of both marginals of a d-level
    matrix in a row that holds its two C-ordered parity blocks end to end.

    One plan per column parity c, of shape ``(2, rows, width)``: ``[0]``
    the first mode's factor, rows (i, m) and columns n of parity c, and
    ``[1]`` the second mode's, rows (i, n) and columns m, i being a row of
    a block.  Level ``n*d + m`` is at position ``(n*d + m) // 2`` of its
    block, and block p gives the rows (i, o) with o of parity p - c, the
    even block's first.
    """
    position = np.arange(d * d).reshape(d, d) // 2
    sizes = [len(levels) for levels in parity_levels(d)]
    offsets = (0, sizes[0] ** 2)
    plans = []
    for c in (0, 1):
        width = len(range(c, d, 2))
        parts = [
            (offset + size * np.arange(size)[:, None, None] + table[(p + c) % 2::2, c::2])
            .reshape(-1, width)
            for table in (position.T, position)
            for p, (size, offset) in enumerate(zip(sizes, offsets))
        ]
        plans.append(np.concatenate(parts).reshape(2, -1, width))
    return _read_only(plans)


@lru_cache(maxsize=None)
def _hermgauss_scaled(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # v = w * exp(t^2) are the weights for integrating a bare function;
    # the log-space product avoids underflow of w at high order.  The
    # folded weights run through the centre node, every one but the
    # centre's doubled.
    t, w = np.polynomial.hermite.hermgauss(order)
    v = np.exp(np.log(w) + t * t)
    folded = 2.0 * v[:(order + 1) // 2]
    folded[-1] = v[order // 2]
    return _read_only([t, v, folded])


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
    mode-1 and both normal-mode eigenfunctions over k1, against the
    normal-mode-2 table laid out C-contiguous as ``(k2, k1, m')``, and a
    second product sums the bare mode-2 eigenfunctions over k2.

    The k2 axis is folded by parity.  The rule is symmetric and the map
    linear, so node ``(N-1-k1, N-1-k2)`` is node ``(k1, k2)`` negated,
    bit for bit, where each integrand takes the factor (-1)^(n+m+n'+m').
    Only k2 up to the centre is evaluated, with every weight but the
    centre's doubled.  The entries whose four levels have an odd sum
    vanish, so block p's second product runs over the columns of parity p
    and forms only the rows of parity p: for each n, the bare mode-2 rows m
    of parity p - n, half of all rows.  The others, odd integrands on the
    folded weights, which sum only even ones, are never formed.  At odd d
    the two parities of n pair with different counts of m, so the shorter
    rows are padded to one batched product, and indexing by a cached row
    order drops the padding (at even d, where no row is padded, the index
    is a whole slice and the block a view of the product).
    """
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"need an integer of at least two levels per mode, got d={d}")
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
    t, v, folded = _hermgauss_scaled(2 * d - 1)
    # k2 runs through the centre node, k1 over all nodes: grids are (k2, k1)
    x2 = t[:d] / sqrt(det / a11)
    x1 = t / sqrt(a11) - (a12 / a11) * x2[:, None]
    x1p = c * x1 + s * x2[:, None]
    x2p = c * x2[:, None] - s * x1

    weights = folded / sqrt(det)
    # one table for the four coordinates: per k2, the k1 nodes of x1, x1'
    # and x2' side by side, then x2, each column with its length scale.
    # bare1 takes its weights in place and rotated2 is copied out, so the
    # table is freed before inner is formed.
    nodes = len(t)
    scales = np.array([1.0, 1.0 / sqrt(w1), 1.0 / sqrt(w2), 1.0 / sqrt(lam)])
    scales = scales.repeat((nodes,) * 3 + (1,))
    table = ho_eigenfunctions(d, np.concatenate([x1, x1p, x2p, x2[:, None]], axis=1), scales)
    bare1, rotated1 = table[:, :, :nodes], table[:, :, nodes:2 * nodes]
    bare1 *= v
    # rotated2, the first product's second operand, is laid out C-contiguous
    rotated2 = table[:, :, 2 * nodes:-1].transpose(1, 2, 0).copy()
    bare2 = table[:, :, -1] * weights
    # sum over k1: (k2, n n', k1) @ (k2, k1, m') for each k2
    pairs = bare1.transpose(1, 0, 2)[:, :, None] * rotated1.transpose(1, 0, 2)[:, None]
    del bare1, rotated1, table
    inner = (pairs.reshape(d, d * d, -1) @ rotated2).reshape(d, d, d * d)
    del pairs
    # sum over k2 per parity p: (m, k2) @ (k2, n' m') for each n, on the
    # columns n' m' of parity p and the rows m of parity p - n, bare2 taking
    # the shape (2, n, m, k2); the row index drops the padded rows of odd d
    m_rows, *kept = _own_rows(d)
    bare2 = bare2[m_rows]
    return tuple(
        (bare2[p] @ inner.take(levels, axis=2).transpose(1, 0, 2))
        .reshape(-1, len(levels))[kept[p]]
        for p, levels in enumerate(parity_levels(d))
    )
