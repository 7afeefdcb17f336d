"""Spectral entropies of stacks of states and the bipartite margin."""
from __future__ import annotations

import numpy as np

__all__ = [
    "NonPositiveQ",
    "bipartite_entropies",
    "spectra",
    "spectrum_entropies",
]

# |q - 1| below this routes to the von Neumann limit; the spectral
# formula divides by (q - 1) and loses accuracy long before it hits a
# literal zero.
VON_NEUMANN_WINDOW = 1e-6


class NonPositiveQ(ValueError):
    """Entropic index q must be positive."""


def spectra(states: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each state in a stack, clipped at zero."""
    # rounding can leave tiny negatives even after upstream clamping
    return np.clip(np.linalg.eigvalsh(states), 0.0, None)


def _von_neumann(p: np.ndarray) -> np.ndarray:
    """-sum(p * ln p) over the positive entries of each ascending spectrum.

    The largest entry is taken as ``1 - rest``, ``rest`` being the sum
    of the others, and its term as ``-(1 - rest) * log1p(-rest)``.  The
    zeros of an ascending clipped spectrum lead it; rows are grouped by
    how many, so each sum runs over exactly the positive entries, in
    order, as a one-spectrum sum would.
    """
    rows = p.reshape(-1, p.shape[-1])
    out = np.empty(len(rows))
    zeros = np.count_nonzero(rows == 0.0, axis=1)
    for k in set(zeros.tolist()):
        group = zeros == k
        others = rows[group, k:-1]
        rest = others.sum(axis=1)
        terms = (others * np.log(others)).sum(axis=1) + (1.0 - rest) * np.log1p(-rest)
        # 0.0 - x, not -x: a pure state's entropy is 0.0, never -0.0
        out[group] = 0.0 - terms
    return out.reshape(p.shape[:-1])


def spectrum_entropies(p: np.ndarray, q: float) -> np.ndarray:
    """Tsallis entropy S_q = (1 - sum(p^q)) / (q - 1) of each spectrum.

    ``p`` is a stack of unit-sum spectra, ascending along its last axis,
    as :func:`spectra` returns them.  The largest entry is taken as
    ``1 - rest``, ``rest`` being the sum of the others, so
    ``1 - p_max^q = -expm1(q * log1p(-rest))``: a nearly pure spectrum
    gets its entropy from its small entries to high relative accuracy,
    not as the rounding left over from ``1 - p_max^q``, and never a
    negative one.  Continuous in q: for |q - 1| < 1e-6 the von Neumann
    value ``-sum(p ln p)`` (with 0 ln 0 = 0) is returned, which the
    spectral formula approaches in that limit.
    """
    if q <= 0:
        raise NonPositiveQ(f"entropic index must be positive, got q={q}")
    if abs(q - 1.0) < VON_NEUMANN_WINDOW:
        return _von_neumann(p)
    others = p[..., :-1]
    top = -np.expm1(q * np.log1p(-others.sum(axis=-1)))
    # adding 0.0 turns the -0.0 that 0.0 / (q - 1) gives at q < 1 into 0.0
    return (top - (others**q).sum(axis=-1)) / (q - 1.0) + 0.0


def bipartite_entropies(
    joint: np.ndarray, marginals: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint and marginal entropies of a stack of two-mode states at one q.

    ``joint`` holds the joint spectra and ``marginals`` the spectra of
    both marginals (leading axis 2, as :func:`partial_traces` orders
    them).  Returns ``(s_joint, s_first, s_second, margin)`` with the
    margin ``s_first + s_second - s_joint``, which is both the mutual
    information and the subadditivity margin.  For q = 1 it is
    non-negative for every state; away from q = 1 it can be legitimately
    negative (Tsallis entropy is not additive over products).
    """
    s_joint = spectrum_entropies(joint, q)
    s_first, s_second = spectrum_entropies(marginals, q)
    return s_joint, s_first, s_second, s_first + s_second - s_joint
