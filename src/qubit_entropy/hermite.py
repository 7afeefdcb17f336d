"""Hermite polynomials, oscillator eigenfunctions, and 2-D Gaussian integrals.

Everything here serves the overlap integrals between two product bases
of oscillator eigenfunctions: closed forms come from moments of a
correlated 2-D Gaussian, and an independent tensor-product
Gauss-Hermite rule integrates the same integrands numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "GaussianQuadraticForm",
    "NotPositiveDefinite",
    "UnsupportedDegree",
    "gauss2d_integral",
    "gauss2d_moment",
    "hermite_poly",
    "ho_eigenfunction",
    "ho_eigenfunctions",
    "quad2d",
]

DEFAULT_QUAD_ORDER = 64
MIN_QUAD_ORDER = 16


class NotPositiveDefinite(ValueError):
    """The quadratic form does not define a convergent Gaussian."""


class UnsupportedDegree(ValueError):
    """Moment degree outside the closed-form table."""


@dataclass(frozen=True)
class GaussianQuadraticForm:
    """Exponent data for ``exp(-(a11*x1^2 + a22*x2^2 + 2*a12*x1*x2) + b1*x1 + b2*x2)``.

    The quadratic part must be positive definite for any integral to
    exist; that is checked where the form is consumed, not here.
    """

    a11: float
    a22: float
    a12: float
    b1: float = 0.0
    b2: float = 0.0

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])


def _require_positive_definite(form: GaussianQuadraticForm) -> None:
    if form.a11 <= 0 or form.det <= 0:
        raise NotPositiveDefinite(
            f"form with a11={form.a11}, det={form.det} is not positive definite"
        )


def hermite_poly(k: int, x: np.ndarray | float) -> np.ndarray | float:
    """Physicists' Hermite polynomial H_k via the three-term recurrence.

    Parameters
    ----------
    k : int
        Degree, k >= 0.
    x : array_like
        Evaluation points.

    Returns
    -------
    ndarray or float
        H_k(x), same shape as x.
    """
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for i in range(k):
        h_prev, h = h, 2.0 * x * h - 2.0 * i * h_prev
    return h if h.ndim else float(h)


def ho_eigenfunctions(
    d: int, x: np.ndarray | float, length_scale: float
) -> np.ndarray:
    """The first ``d`` oscillator eigenfunctions, ``psi_0 ... psi_{d-1}``, at x.

    One pass of the Hermite three-term recurrence fills the
    ``(d, *x.shape)`` table and the Gaussian factor is computed once.
    Row n is ``norm_n / sqrt(length_scale) * exp(-y^2/2) * H_n(y)``
    evaluated in that order, with ``H_n`` from the same recurrence as
    ``hermite_poly``, so it equals that expression bit for bit.
    """
    if d < 1:
        raise ValueError(f"need at least one level, got d={d}")
    if length_scale <= 0:
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


def ho_eigenfunction(
    n: int, x: np.ndarray | float, length_scale: float
) -> np.ndarray | float:
    """Normalized harmonic-oscillator eigenfunction with a length scale.

    For ``y = x / length_scale`` this is
    ``(2**n n! sqrt(pi))**-0.5 * exp(-y^2/2) * H_n(y) / sqrt(length_scale)``,
    which is orthonormal in x for fixed ``length_scale``.  It is the last
    row of ``ho_eigenfunctions(n + 1, x, length_scale)``.
    """
    if n < 0:
        raise ValueError(f"quantum number must be non-negative, got {n}")
    out = ho_eigenfunctions(n + 1, x, length_scale)[n]
    return out if out.ndim else float(out)


def gauss2d_integral(form: GaussianQuadraticForm) -> float:
    """Closed form of the full-plane integral of a 2-D Gaussian.

    Returns ``pi/sqrt(det A) * exp((a22*b1^2 - 2*a12*b1*b2 + a11*b2^2) / (4 det A))``.
    """
    _require_positive_definite(form)
    quad = (
        form.a22 * form.b1**2
        - 2.0 * form.a12 * form.b1 * form.b2
        + form.a11 * form.b2**2
    )
    return math.pi / math.sqrt(form.det) * math.exp(quad / (4.0 * form.det))


# Wick factors for central moments <x1^i x2^j> of exp(-x^T A x) in terms
# of the covariance s = A^{-1} / 2.
def _moment_factor(i: int, j: int, s11: float, s22: float, s12: float) -> float:
    table: dict[tuple[int, int], float] = {
        (0, 0): 1.0,
        (2, 0): s11,
        (0, 2): s22,
        (1, 1): s12,
        (4, 0): 3.0 * s11 * s11,
        (0, 4): 3.0 * s22 * s22,
        (2, 2): s11 * s22 + 2.0 * s12 * s12,
        (3, 1): 3.0 * s11 * s12,
        (1, 3): 3.0 * s22 * s12,
    }
    return table[(i, j)]


def gauss2d_moment(form: GaussianQuadraticForm, powers: tuple[int, int]) -> float:
    """Integral of ``x1^i * x2^j * exp(-x^T A x)`` over the plane.

    Only the centered case (b = 0) and total degree i + j <= 4 are
    supported; that covers every overlap element with indices in {0, 1}.
    Odd total degree integrates to exactly zero and is returned as such
    without touching the form.
    """
    i, j = powers
    if i < 0 or j < 0 or i + j > 4:
        raise UnsupportedDegree(f"moment ({i}, {j}) outside the implemented table")
    if form.b1 != 0.0 or form.b2 != 0.0:
        raise ValueError("moments are implemented for centered forms only (b = 0)")
    if (i + j) % 2 == 1:
        return 0.0
    _require_positive_definite(form)
    det = form.det
    s11 = form.a22 / (2.0 * det)
    s22 = form.a11 / (2.0 * det)
    s12 = -form.a12 / (2.0 * det)
    return math.pi / math.sqrt(det) * _moment_factor(i, j, s11, s22, s12)


@lru_cache(maxsize=None)
def _hermgauss_scaled(order: int) -> tuple[np.ndarray, np.ndarray]:
    # v = w * exp(t^2) are the weights for integrating a bare function;
    # the log-space product avoids underflow of w at high order.
    t, w = np.polynomial.hermite.hermgauss(order)
    v = np.exp(np.log(w) + t * t)
    return t, v


def quad2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    order: int = DEFAULT_QUAD_ORDER,
    weight: GaussianQuadraticForm | None = None,
) -> float:
    """Tensor-product Gauss-Hermite approximation of ``\\iint f(x1, x2) dx1 dx2``.

    Parameters
    ----------
    f : callable
        Real integrand; must accept numpy arrays.  Intended for
        integrands of the form polynomial * Gaussian.
    order : int
        Nodes per axis, at least 16.
    weight : GaussianQuadraticForm, optional
        The Gaussian factor of the integrand.  Nodes are mapped through
        the factorization of its quadratic part so the rule is exact
        whenever ``f / exp(-x^T A x)`` is a polynomial of per-axis
        degree below ``2 * order``.  Omitted means the unit weight
        ``exp(-x1^2 - x2^2)``.
    """
    if order < MIN_QUAD_ORDER:
        raise ValueError(f"order must be at least {MIN_QUAD_ORDER}, got {order}")
    t, v = _hermgauss_scaled(order)
    if weight is None:
        x1 = t[:, None] + np.zeros_like(t)[None, :]
        x2 = np.zeros_like(t)[:, None] + t[None, :]
        jac = 1.0
    else:
        _require_positive_definite(weight)
        mu, rot = np.linalg.eigh(weight.matrix())
        scale = rot @ np.diag(1.0 / np.sqrt(mu))
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        x1 = scale[0, 0] * t1 + scale[0, 1] * t2
        x2 = scale[1, 0] * t1 + scale[1, 1] * t2
        jac = 1.0 / math.sqrt(weight.det)
    values = np.asarray(f(x1, x2), dtype=float)
    return float(jac * np.einsum("i,j,ij->", v, v, values))
