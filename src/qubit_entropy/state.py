"""Thermal states, basis changes, reductions and truncation diagnostics.

Every function works on a stack: the leading axes index states (one per
temperature in the sweep), the last axes hold one state's populations or
matrix.  A single state is a stack of one.
"""
from __future__ import annotations

import math

import numpy as np

from .model import NormalModes
from .transform import TransformTensor

__all__ = [
    "DimensionMismatch",
    "NonPositiveTemperature",
    "NotAProductDimension",
    "canonical_densities",
    "partial_traces",
    "rotate_thermal",
    "thermal_spectra",
    "thermal_weights",
    "validity_diagnostics",
]

# Eigenvalues in [-PSD_CLAMP, 0) are treated as rounding debris and
# clamped to zero; anything below that is a genuine violation.
PSD_CLAMP = 1e-10

# Below this temperature every excited Boltzmann weight underflows;
# return the exact ground-state projector instead.
GROUND_STATE_T = 1e-8


class NonPositiveTemperature(ValueError):
    """Thermal states need T > 0."""


class DimensionMismatch(ValueError):
    """Operator dimensions do not agree."""


class NotAProductDimension(ValueError):
    """Partial trace needs a dimension that is a perfect square."""


def canonical_densities(entries: np.ndarray) -> np.ndarray:
    """Canonicalize a stack of arrays (leading axes) into density matrices.

    Each matrix is symmetrized and scaled to unit trace.  Eigenvalues in
    ``[-1e-10, 0)`` are clamped to zero, with one more symmetrization and
    trace fix, in the matrices that have any; a smaller eigenvalue, a
    non-positive trace or a non-finite result raises ValueError, naming
    the first offending matrix's value.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"density matrix must be square, got {arr.shape}")
    arr = 0.5 * (arr + np.swapaxes(arr, -1, -2))
    traces = np.trace(arr, axis1=-2, axis2=-1)
    bad = ~(traces > 0)
    if bad.any():
        raise ValueError(f"trace must be positive, got {float(traces[bad][0])}")
    arr /= traces[..., None, None]
    evals, vecs = np.linalg.eigh(arr)
    lowest = evals[..., 0]
    bad = lowest < -PSD_CLAMP
    if bad.any():
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {lowest[bad][0]:.3e})"
        )
    clamp = lowest < 0.0
    if clamp.any():
        vecs = vecs[clamp]
        fixed = (vecs * np.clip(evals[clamp], 0.0, None)[..., None, :]) @ np.swapaxes(
            vecs, -1, -2
        )
        fixed = 0.5 * (fixed + np.swapaxes(fixed, -1, -2))
        fixed /= np.trace(fixed, axis1=-2, axis2=-1)[..., None, None]
        arr[clamp] = fixed
    if not np.all(np.isfinite(arr)):
        raise ValueError("density matrix contains non-finite entries")
    return arr


def thermal_weights(modes: NormalModes, temperatures, d: int) -> np.ndarray:
    """Thermal populations of the two normal modes, one row per temperature.

    Row ``k`` holds ``exp(-(n*omega1 + m*omega2)/T_k)`` at index
    ``n*d + m`` (second label fastest), normalized by the truncated
    sum; the zero-point energy cancels against the ground state.  Below
    ``GROUND_STATE_T`` every excited weight underflows and the row is
    the exact ground-state projector.
    """
    temps = np.asarray(temperatures, dtype=float)
    bad = ~(temps > 0)
    if bad.any():
        raise NonPositiveTemperature(
            f"temperature must be positive, got {float(temps[bad][0])}"
        )
    if d < 2:
        raise ValueError(f"need at least two levels per mode, got d={d}")
    n = np.arange(d, dtype=float)
    gaps = (modes.omega1 * n[:, None] + modes.omega2 * n[None, :]).ravel()
    weights = np.zeros((temps.size, d * d))
    weights[:, 0] = 1.0
    warm = temps >= GROUND_STATE_T
    boltzmann = np.exp(-gaps / temps[warm, None])
    weights[warm] = boltzmann / boltzmann.sum(axis=1, keepdims=True)
    return weights


def _weights_and_traces(
    weights: np.ndarray, transform: TransformTensor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, w, tr)``, checked, with ``tr = w . sum_a U_ia^2`` the trace of
    each ``U^T diag(w) U``."""
    # C-ordered: the row sums below round differently on other layouts
    u, w = transform.entries, np.ascontiguousarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != u.shape[0]:
        raise DimensionMismatch(f"weights {w.shape} do not match transform {u.shape}")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weights must be finite and non-negative")
    traces = (w * (u * u).sum(axis=1)).sum(axis=1)
    if not (traces > 0).all():
        raise ValueError(f"trace must be positive, got {traces.min()}")
    return u, w, traces


def thermal_spectra(
    weights: np.ndarray, transform: TransformTensor
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra, shapes ``(k, d*d)`` and ``(2, k, d)``, of a stack
    of bare-basis thermal states and of their marginals (in
    :func:`partial_traces` order), with no state formed.

    The state ``U^T diag(w) U / tr`` is ``B^T B / tr`` with ``B = sqrt(w) U``;
    a marginal is ``C^T C / tr``, C being B with rows (i, m) and columns n
    (first) or rows (i, n) and columns m (second).  The spectra are squared
    singular values over ``tr``.  An eigendecomposition of a formed state
    errs by about eps absolutely, which ``p**q`` with q < 1 magnifies; the
    SVD of B, rows sorted by weight, keeps small singular values to high
    relative accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
    1204 (1992)).  A non-finite spectrum raises ValueError.
    """
    u, w, traces = _weights_and_traces(weights, transform)
    k, dim, d = len(w), len(u), transform.d
    # the SVD keeps relative accuracy on rows graded from large to small
    order = np.argsort(-w, axis=1, kind="stable")
    b = np.sqrt(np.take_along_axis(w, order, axis=1))[:, :, None] * u[order]
    blocks = b.reshape(k, dim, d, d)
    split = np.stack([blocks.transpose(0, 1, 3, 2), blocks]).reshape(2, k, dim * d, d)
    joint, marginals = (
        np.linalg.svd(x, compute_uv=False)[..., ::-1] ** 2 / traces[:, None]
        for x in (b, split)
    )
    if not (np.isfinite(joint).all() and np.isfinite(marginals).all()):
        raise ValueError("thermal spectra are not finite")
    return joint, marginals


def rotate_thermal(weights: np.ndarray, transform: TransformTensor) -> np.ndarray:
    """Express a stack of thermal normal-mode states in the bare basis.

    ``weights`` holds one row of normal-mode populations per state (the
    diagonal of each state).  Returns ``U^T diag(w) U / tr``, applied as
    ``(U^T * w) @ U``, with ``tr`` as in :func:`thermal_spectra`;
    truncation makes U only approximately orthogonal, so a little weight
    is shed and restored by the division.
    """
    u, w, traces = _weights_and_traces(weights, transform)
    # U^T * w must be C-ordered: BLAS rounds a transposed operand differently
    scaled = np.ascontiguousarray(u.T) * w[:, None, :]
    return (scaled @ u) / traces[:, None, None]


def partial_traces(states: np.ndarray) -> np.ndarray:
    """Both single-mode marginals of a stack of two-mode states.

    Returns shape ``(2, *lead, d, d)``: index 0 keeps the first label of
    the ``n*d + m`` composite index, index 1 the second.  The marginals
    are canonicalized with :func:`canonical_densities`.
    """
    dim = states.shape[-1]
    d = math.isqrt(dim)
    if d * d != dim:
        raise NotAProductDimension(
            f"dimension {dim} is not a product of two equal factors"
        )
    blocks = states.reshape(*states.shape[:-2], d, d, d, d)
    reduced = np.stack(
        [np.einsum("...imjm->...ij", blocks), np.einsum("...ninj->...ij", blocks)]
    )
    return canonical_densities(reduced)


def validity_diagnostics(
    weights: np.ndarray, transform: TransformTensor, d_small: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How well the d_small^2 block approximates each d_big^2 thermal state.

    One entry per row of thermal ``weights`` (normal-mode populations at
    ``transform.d`` levels per mode) in each of three arrays, for the
    bare-basis state ``U^T diag(w) U / tr``: the purity of its
    renormalized block of bare levels below d_small (mu_block), the
    squared weight of the complement without renormalization
    (mu_complement, small but not zero as T -> 0) and the absolute sum of
    the off-diagonal elements of the renormalized block (offdiag_sum).

    The state is never formed: ``tr = w . r`` with ``r_i = sum_a U_ia^2``,
    the kept block is ``U_K^T diag(w) U_K``, and the complement weight is
    ``w^T (G o G) w / tr^2`` with ``G = U_R U_R^T``, a sum of non-negative
    terms.  The state is ``B^T B`` with ``B = sqrt(w) U``, so PSD for finite
    non-negative weights, which are checked.
    """
    u, w, traces = _weights_and_traces(weights, transform)
    d_big = transform.d
    if not 2 <= d_small < d_big:
        raise ValueError(f"need 2 <= d_small < d_big, got {d_small}, {d_big}")
    kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
    u_kept, u_rest = u[:, kept], np.delete(u, kept, axis=1)
    # one vector-matrix product per state, so a row rounds as it would alone
    pairs = (u_kept[:, :, None] * u_kept[:, None, :]).reshape(len(u), -1)
    block = (w[:, None, :] @ pairs)[:, 0]  # each row a flattened block
    block /= block[:, :: len(kept) + 1].sum(axis=1, keepdims=True)
    gram = u_rest @ u_rest.T
    mu_block = (block * block).sum(axis=1)
    mu_complement = ((w[:, None, :] @ (gram * gram))[:, 0] * w).sum(axis=1) / traces**2
    off_diagonal = ~np.eye(len(kept), dtype=bool).ravel()
    # compress keeps the rows C-ordered, so each row sums as it would alone
    offdiag = np.abs(block.compress(off_diagonal, axis=1)).sum(axis=1)
    if not np.isfinite(mu_block + mu_complement).all():
        raise ValueError("validity diagnostics are not finite")
    return mu_block, mu_complement, offdiag
