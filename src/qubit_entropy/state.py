"""Thermal density matrices, basis changes, and truncation diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .hermite import DEFAULT_QUAD_ORDER
from .model import CircuitParams, NormalModes
from .transform import TransformMethod, TransformTensor, build_transform

__all__ = [
    "Basis",
    "DensityMatrix",
    "DimensionMismatch",
    "NonPositiveTemperature",
    "NotAProductDimension",
    "SubspaceDiagnostics",
    "canonical_densities",
    "density_from_array",
    "partial_trace",
    "partial_traces",
    "purity",
    "rotate_thermal",
    "subspace_validity",
    "thermal_density",
    "thermal_weights",
    "transform_density",
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


class Basis(Enum):
    NORMAL_MODE = "normal-mode"
    PHYSICAL = "physical"


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric density matrix tagged with its basis and origin.

    Build instances through :func:`density_from_array` or the producers
    in this module; they symmetrize, clamp rounding-level negative
    eigenvalues, and normalize the trace.
    """

    entries: np.ndarray
    basis: Basis
    temperature: float | None = None

    def __post_init__(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"density matrix must be square, got {self.entries.shape}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("density matrix contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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


def density_from_array(
    entries: np.ndarray,
    basis: Basis = Basis.PHYSICAL,
    temperature: float | None = None,
) -> DensityMatrix:
    """Canonicalize one array into a DensityMatrix.

    The array is symmetrized, scaled to unit trace, and eigenvalues in
    ``[-1e-10, 0)`` are clamped to zero (with one more trace fix).  A
    smaller eigenvalue raises ValueError: that is not rounding noise.
    See :func:`canonical_densities`, which does the work.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"density matrix must be square, got {arr.shape}")
    return DensityMatrix(canonical_densities(arr[None])[0], basis, temperature)


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


def thermal_density(modes: NormalModes, temperature: float, d: int) -> DensityMatrix:
    """Thermal state of the two normal modes, truncated to d levels each.

    Diagonal in the normal-mode number basis with the populations of
    :func:`thermal_weights`; row index is ``n*d + m``.
    """
    weights = thermal_weights(modes, [temperature], d)[0]
    return DensityMatrix(np.diag(weights), Basis.NORMAL_MODE, temperature)


def rotate_thermal(weights: np.ndarray, transform: TransformTensor) -> np.ndarray:
    """Express a stack of thermal normal-mode states in the bare basis.

    ``weights`` holds one row of normal-mode populations per state (the
    diagonal of each state).  Applies ``U^T diag(w) U`` as
    ``(U^T * w) @ U``, which rounds identically, then canonicalizes with
    :func:`canonical_densities`; truncation makes U only approximately
    orthogonal, so a little weight is shed and restored by the
    normalization.
    """
    u = transform.entries
    if weights.shape[-1] != u.shape[0]:
        raise DimensionMismatch(
            f"state dimension {weights.shape[-1]} does not match transform {u.shape[0]}"
        )
    # U^T * w must be C-ordered: BLAS rounds a transposed operand differently
    scaled = np.ascontiguousarray(u.T) * weights[:, None, :]
    return canonical_densities(scaled @ u)


def transform_density(rho: DensityMatrix, transform: TransformTensor) -> DensityMatrix:
    """Express a diagonal (thermal) normal-mode state in the bare product basis.

    See :func:`rotate_thermal`, which does the work.
    """
    if rho.basis is not Basis.NORMAL_MODE:
        raise ValueError(f"expected a normal-mode state, got basis={rho.basis}")
    weights = np.diag(rho.entries)
    if np.count_nonzero(rho.entries - np.diag(weights)):
        raise ValueError("expected a diagonal normal-mode state")
    rotated = rotate_thermal(weights[None], transform)[0]
    return DensityMatrix(rotated, Basis.PHYSICAL, rho.temperature)


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


def partial_trace(rho: DensityMatrix, subsystem: int) -> DensityMatrix:
    """Trace out one mode of a two-mode state.

    ``subsystem`` selects the mode that is kept: 1 keeps the first
    label of the ``n*d + m`` composite index, 2 keeps the second.
    """
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    reduced = partial_traces(rho.entries[None])[subsystem - 1, 0]
    return DensityMatrix(reduced, rho.basis, rho.temperature)


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2; for a symmetric matrix this is the squared Frobenius norm."""
    return float(np.sum(rho.entries * rho.entries))


class SubspaceDiagnostics(NamedTuple):
    mu_block: float
    mu_complement: float
    offdiag_sum: float


def subspace_validity(
    modes: NormalModes,
    params: CircuitParams,
    temperature: float,
    d_small: int = 2,
    d_big: int = 6,
    transform: TransformTensor | None = None,
    order: int = DEFAULT_QUAD_ORDER,
) -> SubspaceDiagnostics:
    """How well the d_small^2 block approximates the d_big^2 state.

    Reported for the bare-basis thermal state at d_big levels per mode
    are the purity of its renormalized block of bare levels below d_small
    (mu_block), the squared weight of the complement without
    renormalization (mu_complement, small but not zero as T -> 0) and the
    absolute sum of off-diagonal elements of the renormalized block; see
    :func:`validity_diagnostics`.

    Parameters
    ----------
    transform : TransformTensor, optional
        A prebuilt d_big tensor, so sweeps can reuse one across
        temperatures.  Built on the fly by quadrature when omitted.
    """
    if transform is None:
        transform = build_transform(
            params, modes, d=d_big, method=TransformMethod.QUADRATURE, order=order
        )
    elif transform.d != d_big:
        raise DimensionMismatch(
            f"prebuilt transform has d={transform.d}, expected {d_big}"
        )
    weights = thermal_weights(modes, [temperature], d_big)
    columns = validity_diagnostics(weights, transform, d_small)
    return SubspaceDiagnostics(*(float(column[0]) for column in columns))


def validity_diagnostics(
    weights: np.ndarray, transform: TransformTensor, d_small: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays ``(mu_block, mu_complement, offdiag_sum)`` of
    :func:`subspace_validity`, one entry per row of thermal ``weights``.

    The state ``U^T diag(w) U / tr`` is never formed: ``tr = w . r`` with
    ``r_i = sum_a U_ia^2``, the kept block is ``U_K^T diag(w) U_K``, and the
    complement weight is ``w^T (G o G) w / tr^2`` with ``G = U_R U_R^T``, a
    sum of non-negative terms.  The state is ``B^T B`` with ``B = sqrt(w) U``,
    so PSD for finite non-negative weights, which are checked.
    """
    u, w, d_big = transform.entries, np.asarray(weights, dtype=float), transform.d
    if w.ndim != 2 or w.shape[1] != u.shape[0]:
        raise DimensionMismatch(f"weights {w.shape} do not match transform {u.shape}")
    if not 2 <= d_small < d_big:
        raise ValueError(f"need 2 <= d_small < d_big, got {d_small}, {d_big}")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weights must be finite and non-negative")
    traces = (w * (u * u).sum(axis=1)).sum(axis=1)
    if not (traces > 0).all():
        raise ValueError(f"trace must be positive, got {traces.min()}")
    kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
    u_kept, u_rest = u[:, kept], np.delete(u, kept, axis=1)
    # one vector-matrix product per state, so a row rounds as it would alone
    pairs = (u_kept[:, :, None] * u_kept[:, None, :]).reshape(len(u), -1)
    block = (w[:, None, :] @ pairs)[:, 0]  # each row a flattened block
    diagonal = slice(None, None, len(kept) + 1)
    block /= block[:, diagonal].sum(axis=1, keepdims=True)
    gram = u_rest @ u_rest.T
    mu_block = (block * block).sum(axis=1)
    mu_complement = ((w[:, None, :] @ (gram * gram))[:, 0] * w).sum(axis=1) / traces**2
    offdiag = np.abs(block).sum(axis=1) - np.abs(block[:, diagonal]).sum(axis=1)
    if not np.isfinite(mu_block + mu_complement).all():
        raise ValueError("validity diagnostics are not finite")
    return mu_block, mu_complement, offdiag
