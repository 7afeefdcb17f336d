"""Spectral entropies of stacks of states and the bipartite margin."""
from __future__ import annotations

import numpy as np

__all__ = ["bipartite_entropies", "spectrum_entropies"]

# |q - 1| below this routes to the von Neumann limit; the spectral
# formula divides by (q - 1) and loses accuracy long before it hits a
# literal zero.
VON_NEUMANN_WINDOW = 1e-6


def spectrum_entropies(p: np.ndarray, q: float) -> np.ndarray:
    """Tsallis entropy S_q = (1 - sum(p^q)) / (q - 1) of each spectrum.

    ``p`` is a stack of non-negative unit-sum spectra, each ascending
    along the last axis, as :func:`~qubit_entropy.state.thermal_spectra`
    returns them; the result has the shape of ``p`` without its last
    axis.  The largest entry is taken as ``1 - rest``, ``rest`` being the
    sum of the others, so ``1 - p_max^q = -expm1(q * log1p(-rest))``: a
    nearly pure spectrum gets its entropy from its small entries to high
    relative accuracy, not as the rounding left over from ``1 - p_max^q``,
    and never a negative one.  Continuous in q: for |q - 1| < 1e-6 the
    von Neumann value ``-sum(p ln p)`` (with 0 ln 0 = 0) is returned,
    which the spectral formula approaches in that limit.
    """
    if not q > 0:
        raise ValueError(f"entropic index must be positive, got q={q}")
    others = p[..., :-1]
    rest = others.sum(axis=-1)
    if abs(q - 1.0) < VON_NEUMANN_WINDOW:
        # a zero entry's term is 0 * log(1) = 0; 0.0 - x, not -x: a pure
        # state's entropy is 0.0, never -0.0
        logs = np.log(np.where(others > 0, others, 1.0))
        return 0.0 - ((others * logs).sum(axis=-1) + (1.0 - rest) * np.log1p(-rest))
    top = -np.expm1(q * np.log1p(-rest))
    # adding 0.0 turns the -0.0 that 0.0 / (q - 1) gives at q < 1 into 0.0
    return (top - (others**q).sum(axis=-1)) / (q - 1.0) + 0.0


def bipartite_entropies(
    joint: np.ndarray, marginals: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint and marginal entropies of a stack of k two-mode states at one q.

    ``joint`` holds the k joint spectra, shape ``(k, d*d)``, and
    ``marginals`` the spectra of the first and of the second mode's
    marginals, shape ``(2, k, d)``; all ascending, as
    :func:`~qubit_entropy.state.thermal_spectra` returns them.  Returns
    ``(s_joint, s_first, s_second, margin)``, each of shape ``(k,)``, with
    the margin ``s_first + s_second - s_joint``, which is both the mutual
    information and the subadditivity margin.  For q >= 1 it is
    non-negative for every state (for q > 1: Audenaert, J. Math. Phys. 48,
    083507 (2007)): a difference within the rounding of the three
    entropies is returned as 0, a larger one unchanged.  For q < 1 a
    product state has the negative margin (q - 1) S_1 S_2.
    """
    s_joint = spectrum_entropies(joint, q)
    s_first, s_second = spectrum_entropies(marginals, q)
    margin = s_first + s_second - s_joint
    if q > 1.0 - VON_NEUMANN_WINDOW:
        # A product state's margin, (q - 1) S_1 S_2 (0 at q = 1), is the
        # difference of three entropies that each err by a few eps S,
        # whatever the number of terms: the largest entry is 1 - rest, so
        # the entries' errors sum to zero.  At g = 0 the error measures at
        # most 1.2 eps (S_1 + S_2 + S_joint) at q = 1 and 3.2 eps that sum
        # at q = 1.2, 1.5, 2 and 3 (2 to 31 levels per mode, 5 to 13 lam,
        # 60 to 400 T), so a margin within 4 eps times that sum is rounding
        # (eps = 2**-52).  The worst-case n eps per sum of n = d*d terms
        # would, at d = 31, also zero the I ~ 1e-13 of g ~ 5e-7.
        noise = (s_first + s_second + s_joint) * (4 * 2.0**-52)
        margin = np.where(np.abs(margin) <= noise, 0.0, margin)
    return s_joint, s_first, s_second, margin
