"""Thermal weights, the spectra of the bare-basis states and truncation diagnostics.

The thermal state is diagonal in the normal-mode basis, with Boltzmann
populations ``w`` from one formula at every temperature (a cold row
underflows to the exact ground-state projector); in the bare basis it is
``U^T diag(w) U / tr``, U the overlap tensor.
Its spectra and diagnostics are computed from ``w`` and U without forming
that matrix.  The coupling ``x1 x2`` preserves total parity, so
``U[nm, n'm']`` is zero whenever ``n + m + n' + m'`` is odd.  Both
stages rely on it: the spectra take the singular values of each parity
block, by one SVD call or, for a block one column wide or 2 x 2 (every
block at two levels per mode), in closed form, and the diagnostics split
their Gram matrix by parity.  Every
function works on a stack: the leading axis indexes states (one per
temperature in the sweep), the last axis holds one state's
populations.  A single state is a stack of one.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import NormalModes

__all__ = ["thermal_spectra", "thermal_weights", "validity_diagnostics"]


def thermal_weights(modes: NormalModes, temperatures, d: int) -> np.ndarray:
    """Thermal populations of the two normal modes, one row per temperature.

    Row ``k`` holds ``exp(-(n*omega1 + m*omega2)/T_k)`` at index
    ``n*d + m`` (second label fastest), normalized by the truncated
    sum; the zero-point energy cancels against the ground state.  Every
    row takes this one formula.  An excited weight is exactly 0 once its
    gap exceeds about 745 T, where ``exp`` underflows (at a subnormal T,
    ``gap / T`` overflows to inf first), so a cold row is the exact
    ground-state projector while a mode whose gap is not many times T
    keeps its weight.
    """
    temps = np.asarray(temperatures, dtype=float)
    bad = ~(temps > 0)
    if bad.any():
        raise ValueError(f"temperature must be positive, got {float(temps[bad][0])}")
    if d < 2:
        raise ValueError(f"need at least two levels per mode, got d={d}")
    n = np.arange(d, dtype=float)
    gaps = (modes.omega1 * n[:, None] + modes.omega2 * n[None, :]).ravel()
    with np.errstate(over="ignore"):
        boltzmann = np.exp(-gaps / temps[:, None])
    return boltzmann / boltzmann.sum(axis=1, keepdims=True)


def _weights_and_traces(
    weights: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(w, tr, d)``, checked, with ``tr = w . sum_a U_ia^2`` the trace of
    each ``U^T diag(w) U`` and d the levels per mode of the (d*d, d*d) U."""
    # C-ordered: the row sums below round differently on other layouts
    w, d = np.ascontiguousarray(weights, dtype=float), math.isqrt(len(u))
    if u.shape != (d * d, d * d) or w.ndim != 2 or w.shape[1] != len(u):
        raise ValueError(f"weights {w.shape} do not match transform {u.shape}")
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        raise ValueError(f"weights must be finite and non-negative, got {w[bad][0]}")
    traces = (w * (u * u).sum(axis=1)).sum(axis=1)
    if not (traces > 0).all():
        raise ValueError(f"trace must be positive, got {traces.min()}")
    return w, traces, d


def thermal_spectra(
    weights: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of a stack of k bare-basis thermal states and of
    their marginals, with no state formed.

    ``weights`` holds one row of normal-mode populations per state and
    ``u`` is the ``(d*d, d*d)`` overlap matrix of
    :func:`~qubit_entropy.transform.build_transform`.  Returns ``joint``
    of shape ``(k, d*d)`` and ``marginals`` of shape ``(2, k, d)``:
    ``marginals[0]`` is the spectrum of the first mode's marginal (the
    label n of the bare index ``n*d + m``), ``marginals[1]`` that of the
    second mode's (the label m).

    The state ``U^T diag(w) U / tr`` is ``B^T B / tr`` with ``B = sqrt(w) U``;
    a marginal is ``C^T C / tr``, C being B with rows (i, m) and columns n
    (first) or rows (i, n) and columns m (second).  The spectra are squared
    singular values over ``tr``.  An eigendecomposition of a formed state
    errs by about eps absolutely, which ``p**q`` with q < 1 magnifies; the
    SVD of B, rows sorted by weight, keeps small singular values to high
    relative accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
    1204 (1992)).

    Every spectrum is the union of two parity blocks.  U couples only
    levels of like parity of ``n + m``, so B splits into its even-even
    and odd-odd blocks, whose rows are sorted by weight on their own;
    and a marginal commutes with its own parity, so C splits into its
    columns of even and of odd level.  Each block takes one SVD call,
    both marginals' blocks of one parity together, but two shapes take
    none: a block one column wide has one singular value, the column's
    norm, and a 2 x 2 block, each joint block at d = 2, has a closed form
    (LAPACK's ``dlas2`` after one Givens rotation), as accurate and
    without the per-call cost of LAPACK, which dominates at that size.
    A ``u`` with a nonzero entry between levels of unlike parity, and a
    non-finite spectrum, raise ValueError.
    """
    w, traces, d = _weights_and_traces(weights, u)
    unlike, blocks = _parity_blocks(d)
    if u[unlike].any():
        raise ValueError("u couples levels of unlike parity")
    # rows by parity, then by descending weight: each block's rows graded
    order = np.lexsort((-w, _parity(d)[None].repeat(len(w), axis=0)))
    b = np.sqrt(np.take_along_axis(w, order, axis=1))[:, :, None] * u[order]
    b = b.reshape(len(w), -1)
    joint, marginals = [], []
    for (rows, cols), (m_rows, m_cols) in blocks:
        joint.append(_squared_singular_values(b.take(rows + cols, axis=1)))
        marginals.append(_squared_singular_values(b.take(m_rows + m_cols, axis=1)))
    joint = np.sort(np.concatenate(joint, axis=-1)) / traces[:, None]
    marginals = np.sort(np.concatenate(marginals, axis=-1).swapaxes(0, 1)) / traces[:, None]
    if not (np.isfinite(joint).all() and np.isfinite(marginals).all()):
        raise ValueError("thermal spectra are not finite")
    return joint, marginals


def _squared_singular_values(x: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix of a stack of blocks of B,
    their rows sorted by descending weight as :func:`thermal_spectra`
    gathers them.

    A block one column wide has one, its column's sum of squares, summed
    along the contiguous last axis so that each state rounds as it would
    alone; a 2 x 2 block takes the closed form of :func:`_singular_values_2x2`,
    which makes no LAPACK call; any other block takes one SVD call.
    """
    if x.shape[-1] == 1:
        x = x[..., 0]
        return (x * x).sum(axis=-1, keepdims=True)
    if x.shape[-2:] == (2, 2):
        return _singular_values_2x2(x) ** 2
    return np.linalg.svd(x, compute_uv=False) ** 2


def _singular_values_2x2(x: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a stack of 2 x 2 matrices, each to
    high relative accuracy, elementwise over the stack.

    One Givens rotation of the two rows takes ``[[a, b], [c, d]]`` to the
    upper triangular ``[[f, g], [0, h]]``, ``f = hypot(a, c)``; a row that
    is small next to the other stays small in h.  The triangle's two
    values then come as in LAPACK's ``dlas2``, with no Gram matrix, whose
    rounding would lose the smaller one: the larger
    ``(hypot(f + h, g) + hypot(f - h, g)) / 2`` and the smaller
    ``min(f, h) * (max(f, h) / larger)``, both to a few ulps.  ``np.hypot``
    scales the squares that ``dlas2`` scales by branching on ``g`` against
    ``max(f, h)``, so every matrix takes one path.
    """
    a, b, c, d = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
    f = np.hypot(a, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero first column needs no rotation, and an all-zero
        # triangle has no ratio: the unselected lanes divide 0 by 0
        rotate = f > 0
        cos, sin = np.where(rotate, a / f, 1.0), np.where(rotate, c / f, 0.0)
        g, h = np.abs(cos * b + sin * d), np.abs(cos * d - sin * b)
        low, high = np.minimum(f, h), np.maximum(f, h)
        large = (np.hypot(high + low, g) + np.hypot(high - low, g)) / 2
        small = np.where(high > 0, low * (high / large), 0.0)
    return np.stack([large, small], axis=-1)


@lru_cache(maxsize=None)
def _parity(d: int) -> np.ndarray:
    """The parity of ``n + m`` of each of the d*d levels ``n*d + m``."""
    return np.add.outer(np.arange(d), np.arange(d)).ravel() % 2


@lru_cache(maxsize=None)
def _parity_blocks(d: int) -> tuple:
    """``(unlike, blocks)`` at d levels per mode: the mask of the
    ``(d*d, d*d)`` entries between levels of unlike parity, and for each
    parity p, even first, two gathers from a row of the flattened B, rows
    sorted by parity: its p-p block, and both marginals' columns of level
    parity p without the rows that are zero in them, the first
    marginal's then the second's.  A gather is a row and a column offset,
    shapes ``(rows, 1)`` and ``(cols,)`` for the block and ``(2, rows, 1)``
    and ``(2, 1, cols)`` for the marginals; their sum, formed per call, is
    the index (cached, the indices would hold 12 MB at d = 31)."""
    dim, parity = d * d, _parity(d)
    row_parity = np.sort(parity)
    row, other = np.divmod(np.arange(dim * d), d)
    blocks = []
    for p in (0, 1):
        joint = (np.flatnonzero(row_parity == p)[:, None] * dim, np.flatnonzero(parity == p))
        # a row (r, other) of C meets the columns of level parity p only
        # if r has the parity of p + other
        keep = row_parity[row] == (p + other) % 2
        r, o = row[keep] * dim, other[keep]
        levels = np.arange(p, d, 2)
        marginal = (np.stack([r + o, r + o * d])[..., None], np.stack([levels * d, levels])[:, None])
        blocks.append((joint, marginal))
    return parity[:, None] != parity, tuple(blocks)


def validity_diagnostics(
    weights: np.ndarray, u: np.ndarray, d_small: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How well the d_small^2 block approximates each d_big^2 thermal state.

    One entry per row of thermal ``weights`` (normal-mode populations at
    the d_big levels per mode of ``u``) in each of three arrays, for the
    bare-basis state ``U^T diag(w) U / tr``: the purity of its
    renormalized block of bare levels below d_small (mu_block), the
    squared weight of the complement without renormalization
    (mu_complement, small but not zero as T -> 0) and the absolute sum of
    the off-diagonal elements of the renormalized block (offdiag_sum).

    The state is never formed: ``tr = w . r`` with ``r_i = sum_a U_ia^2``,
    the kept block is ``U_K^T diag(w) U_K``, formed per state as
    ``(U_K^T w) @ U_K``, and the complement weight is
    ``w^T (G o G) w / tr^2`` with ``G = U_R U_R^T``, a sum of non-negative
    terms.  The state is ``B^T B`` with ``B = sqrt(w) U``, so PSD for finite
    non-negative weights, which are checked.

    G is computed as two parity blocks: rows of level sum ``n + m`` of
    one parity against the complement columns of the same parity, which
    is all of G when no complement column of ``u`` couples rows of unlike
    parity, as for every tensor of
    :func:`~qubit_entropy.transform.build_transform`.  A ``u`` whose
    complement columns do couple them raises ValueError.
    """
    w, traces, d_big = _weights_and_traces(weights, u)
    if not 2 <= d_small < d_big:
        raise ValueError(f"need 2 <= d_small < d_big, got {d_small}, {d_big}")
    kept, off_diagonal, parity_blocks = _diagnostic_indices(d_big, d_small)
    u_kept = u[:, kept]
    # one product per state, so a row rounds as it would alone
    block = ((u_kept.T * w[:, None, :]) @ u_kept).reshape(len(w), -1)
    block /= block[:, :: len(kept) + 1].sum(axis=1, keepdims=True)
    mu_block = (block * block).sum(axis=1)
    # (G o G) w per state and parity block, scattered back to bare order so
    # that w . (G o G) w sums over the bare index as one product would
    gram_w = np.empty_like(w)
    for rows, like, unlike in parity_blocks:
        u_rows = u.take(rows, axis=0)
        if u_rows.take(unlike, axis=1).any():
            raise ValueError("a complement column of u couples levels of unlike parity")
        u_rest = u_rows.take(like, axis=1)
        gram = u_rest @ u_rest.T
        w_rows = w.take(rows, axis=1)[:, None, :]
        gram_w[:, rows] = (w_rows @ (gram * gram))[:, 0]
    mu_complement = (gram_w * w).sum(axis=1) / traces**2
    # take keeps the rows C-ordered, so each row sums as it would alone
    offdiag = np.abs(block.take(off_diagonal, axis=1)).sum(axis=1)
    if not np.isfinite(mu_block + mu_complement).all():
        raise ValueError("validity diagnostics are not finite")
    return mu_block, mu_complement, offdiag


@lru_cache(maxsize=None)
def _diagnostic_indices(d_big: int, d_small: int) -> tuple:
    """``(kept, off_diagonal, parity_blocks)`` for :func:`validity_diagnostics`:
    the bare levels ``n*d_big + m`` with ``n, m < d_small``, the positions of
    the off-diagonal entries of their flattened block, and for each parity
    of ``n + m``, even first, its levels with the complement levels of like
    and of unlike parity."""
    kept = np.array([n * d_big + m for n in range(d_small) for m in range(d_small)])
    off_diagonal = np.flatnonzero(~np.eye(len(kept), dtype=bool))
    parity = _parity(d_big)
    rest = np.ones(d_big * d_big, dtype=bool)
    rest[kept] = False
    parity_blocks = tuple(
        (
            np.flatnonzero(parity == p),
            np.flatnonzero(rest & (parity == p)),
            np.flatnonzero(rest & (parity != p)),
        )
        for p in (0, 1)
    )
    return kept, off_diagonal, parity_blocks
