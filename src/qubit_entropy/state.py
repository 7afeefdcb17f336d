"""Thermal weights, the spectra of the bare-basis states and truncation diagnostics.

The thermal state is diagonal in the normal-mode basis, with Boltzmann
populations ``w`` from one formula at every temperature (a cold row
underflows to the exact ground-state projector); in the bare basis it is
``U^T diag(w) U / tr``, U the overlap tensor, which comes as its parity
blocks ``(u_even, u_odd)``.  Its spectra and diagnostics are computed
block by block from ``w`` and U without forming that matrix: the spectra
take singular values, by one SVD call per parity block and per marginal
plan or, for a block one column wide or 2 x 2 (every block at two levels
per mode), in closed form, and the marginals' factors are read from both
blocks by one ``take`` per column parity on
:func:`~qubit_entropy.transform.marginal_positions`, the positions the
layout rule of :func:`~qubit_entropy.transform.parity_levels` gives
them, built once per d.  Every index a call uses is such a plan, cached
by level counts alone.  Every function works on a stack: the leading
axis indexes states (one per temperature in the sweep), the last axis
holds one state's populations.  A single state is a stack of one.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .model import NormalModes
from .transform import (
    complement_positions, diagonal_positions, leading_positions, marginal_positions,
    parity_levels,
)

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
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"need an integer of at least two levels per mode, got d={d}")
    n = np.arange(d, dtype=float)
    gaps = (modes.omega1 * n[:, None] + modes.omega2 * n[None, :]).ravel()
    with np.errstate(over="ignore"):
        boltzmann = np.exp(-gaps / temps[:, None])
    return boltzmann / boltzmann.sum(axis=1, keepdims=True)


def _weights_and_traces(weights: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray, int]:
    """``(w, tr, d)``, checked, with ``tr = w . sum_a U_ia^2`` the trace of
    each ``U^T diag(w) U`` and d the levels per mode of the ``blocks``."""
    shapes = [np.shape(block) for block in blocks]
    d = math.isqrt(sum(shape[0] for shape in shapes if shape))
    if shapes != [(size, size) for size in ((d * d + 1) // 2, d * d // 2)]:
        raise ValueError(f"blocks {shapes} are not the two parity blocks of any d")
    # C-ordered: the row sums below round differently on other layouts
    w = np.ascontiguousarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != d * d:
        raise ValueError(f"weights {w.shape} do not match blocks {shapes}")
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        raise ValueError(f"weights must be finite and non-negative, got {w[bad][0]}")
    # each row's sum of squares, in bare order so that tr sums over it
    sums = np.empty(d * d)
    for block, levels in zip(blocks, parity_levels(d)):
        sums[levels] = (block * block).sum(axis=1)
    traces = (w * sums).sum(axis=1)
    if not (traces > 0).all():
        raise ValueError(f"trace must be positive, got {traces.min()}")
    return w, traces, d


def thermal_spectra(weights: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of a stack of k bare-basis thermal states and of
    their marginals, with no state formed.

    ``weights`` holds one row of normal-mode populations per state and
    ``blocks`` is the pair ``(u_even, u_odd)`` of
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

    Every spectrum is the union of two parity blocks: B is the two
    weight-scaled blocks of U, rows sorted by weight, and a marginal
    commutes with its own parity, so C splits into its columns of even
    and of odd level c, in which block p gives the rows (i, o) with o of
    parity p - c.  Both blocks of B are laid end to end in one row per
    state, and one ``take`` per column parity, on the plans of
    :func:`~qubit_entropy.transform.marginal_positions` cached per d,
    reads both marginals' factors of that parity from it as one stack.
    Each weight-scaled block and each such stack takes one SVD call, so
    both marginals' factors of one parity share a call with no copy
    beyond the take.  Two shapes take none: a block one column wide has
    one singular value, the column's norm, and a 2 x 2 block, each joint
    block at d = 2, has a closed form (LAPACK's ``dlas2`` after one Givens
    rotation), as accurate and without the per-call cost of LAPACK, which
    dominates at that size.  A non-finite spectrum raises ValueError.
    """
    w, traces, d = _weights_and_traces(weights, blocks)
    states = np.arange(len(w))[:, None]
    scaled = []
    for block, levels in zip(blocks, parity_levels(d)):
        w_block = w.take(levels, axis=1)
        order = np.argsort(-w_block, axis=1, kind="stable")
        scaled.append(np.sqrt(w_block[states, order])[..., None] * block.take(order, axis=0))
    joint = [_squared_singular_values(x) for x in scaled]
    # both blocks end to end in each row, read by one take per column
    # parity c: a (k, 2, rows, width) stack of both marginals' factors
    row = np.concatenate([x.reshape(len(w), -1) for x in scaled], axis=1)
    marginals = [
        _squared_singular_values(row.take(plan, axis=1)) for plan in marginal_positions(d)
    ]
    joint = np.sort(np.concatenate(joint, axis=-1)) / traces[:, None]
    marginals = np.sort(np.concatenate(marginals, axis=-1).swapaxes(0, 1)) / traces[:, None]
    if not (np.isfinite(joint).all() and np.isfinite(marginals).all()):
        raise ValueError("thermal spectra are not finite")
    return joint, marginals


def _squared_singular_values(x: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix of a stack of blocks of B,
    their rows sorted by descending weight, block by block, as
    :func:`thermal_spectra` takes them from the blocks of B.

    A block one column wide has one, its column's sum of squares, summed
    along the contiguous last axis so that each state rounds as it would
    alone; a 2 x 2 block takes the closed form of :func:`_singular_values_2x2`,
    which makes no LAPACK call; any other stack takes one SVD call.
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
    values = np.empty(x.shape[:-1])
    f = np.hypot(a, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero first column needs no rotation, and an all-zero
        # triangle has no ratio: the unselected lanes divide 0 by 0
        rotate = f > 0
        cos, sin = np.where(rotate, a / f, 1.0), np.where(rotate, c / f, 0.0)
        g, h = np.abs(cos * b + sin * d), np.abs(cos * d - sin * b)
        low, high = np.minimum(f, h), np.maximum(f, h)
        large = (np.hypot(high + low, g) + np.hypot(high - low, g)) / 2
        values[..., 0], values[..., 1] = large, np.where(high > 0, low * (high / large), 0.0)
    return values


def validity_diagnostics(weights: np.ndarray, blocks, d_small: int) -> tuple[np.ndarray, ...]:
    """How well the d_small^2 block approximates each d_big^2 thermal state.

    One entry per row of thermal ``weights`` (normal-mode populations at
    the d_big levels per mode of the parity ``blocks`` of U) in each of
    three arrays, for the bare-basis state ``U^T diag(w) U / tr``: the
    purity of its renormalized block of bare levels below d_small
    (mu_block), the squared weight of the complement without
    renormalization (mu_complement, small but not zero as T -> 0) and the
    absolute sum of the off-diagonal elements of the renormalized block
    (offdiag_sum).

    The state is never formed: ``tr = w . r`` with ``r_i = sum_a U_ia^2``,
    the kept block is ``U_K^T diag(w) U_K``, formed per state as
    ``(U_K^T w) @ U_K``, and the complement weight is
    ``w^T (G o G) w / tr^2`` with ``G = U_R U_R^T``, a sum of non-negative
    terms, each a parity block formed from that block of U, whose columns
    K are those of :func:`~qubit_entropy.transform.leading_positions` and
    R those of :func:`~qubit_entropy.transform.complement_positions`.  The
    state is ``B^T B`` with ``B = sqrt(w) U``, so PSD for finite
    non-negative weights, which are checked.
    """
    # checked first: a float d_small would key the position caches as an integer
    if not isinstance(d_small, numbers.Integral):
        raise ValueError(f"d_small must be an integer, got {d_small}")
    w, traces, d_big = _weights_and_traces(weights, blocks)
    if not 2 <= d_small < d_big:
        raise ValueError(f"need 2 <= d_small < d_big, got {d_small}, {d_big}")
    # (G o G) w per state and parity block, in bare order so that
    # w . (G o G) w sums over the bare index as one product would
    gram_w, kept_blocks = np.empty_like(w), []
    for block, levels, kept, rest in zip(
        blocks, parity_levels(d_big),
        leading_positions(d_big, d_small), complement_positions(d_big, d_small),
    ):
        w_block = w.take(levels, axis=1)[:, None, :]
        u_kept = block.take(kept, axis=1)
        # one product per state, so a row rounds as it would alone; the
        # weights scale a C-ordered copy of U_K^T, which multiplies fastest
        product = (np.ascontiguousarray(u_kept.T) * w_block) @ u_kept
        kept_blocks.append(product.reshape(len(w), -1))
        u_rest = block.take(rest, axis=1)
        gram = u_rest @ u_rest.T
        gram_w[:, levels] = (w_block @ (gram * gram))[:, 0]
    mu_complement = (gram_w * w).sum(axis=1) / traces**2
    # both kept parity blocks end to end in each row; take keeps the rows
    # C-ordered, so each row sums as it would alone
    kept_block = np.concatenate(kept_blocks, axis=1)
    on_diagonal, off_diagonal = diagonal_positions(d_small)
    kept_block /= kept_block.take(on_diagonal, axis=1).sum(axis=1, keepdims=True)
    mu_block = (kept_block * kept_block).sum(axis=1)
    offdiag = np.abs(kept_block.take(off_diagonal, axis=1)).sum(axis=1)
    if not np.isfinite(mu_block + mu_complement).all():
        raise ValueError("validity diagnostics are not finite")
    return mu_block, mu_complement, offdiag

