"""Circuit parameters and normal-mode diagonalization.

Two LC circuits coupled through a mutual inductance map onto a pair of
unit-mass harmonic oscillators with a bilinear coordinate coupling.  In
dimensionless form the first oscillator has unit frequency, the second
has frequency ``lam``, and the coupling strength is
``g = L12 / sqrt(L1 * L2)``.  A rotation of the two coordinates by an
angle ``phi`` removes the cross term and yields the normal-mode
frequencies ``omega1`` and ``omega2``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "SMALL_ANGLE_LIMIT",
    "FrequencyMethod",
    "NormalModes",
    "normal_modes",
]

# |phi| at or above this is outside the regime the linearized rotation
# was derived for; callers get a warning rather than an error.
SMALL_ANGLE_LIMIT = 0.3


class FrequencyMethod(Enum):
    SMALL_ANGLE = "small-angle"
    EXACT = "exact"


@dataclass(frozen=True)
class NormalModes:
    """A circuit ``(lam, g)``, its rotation angle and normal-mode frequencies."""

    lam: float
    g: float
    phi: float
    omega1: float
    omega2: float
    method: FrequencyMethod

    @property
    def rotation(self) -> tuple[float, float]:
        """``(c, s)`` with normal-mode coordinates ``x1' = c*x1 + s*x2`` and
        ``x2' = c*x2 - s*x1``: ``(cos phi, sin phi)`` for the exact angle,
        the linearized ``(1, phi)`` of the small-angle treatment."""
        if self.method is FrequencyMethod.EXACT:
            return math.cos(self.phi), math.sin(self.phi)
        return 1.0, self.phi


def normal_modes(
    lam: float,
    g: float,
    method: FrequencyMethod = FrequencyMethod.SMALL_ANGLE,
) -> NormalModes:
    """Diagonalize the coupled pair into normal modes.

    ``lam``, the ratio of the bare frequencies (second over first), must
    be positive with a finite square, and ``|g| < 1`` keeps both modes
    stable; ValueError otherwise.

    The small-angle method takes the leading-order rotation angle
    ``phi = g*lam / (lam**2 - 1)`` and evaluates the linearized frequency
    formulas ``omega1**2 = 1 - 2*g*lam*phi + lam**2*phi**2`` and
    ``omega2**2 = phi**2 + lam**2 + 2*g*lam*phi`` at it.  It raises
    ValueError at ``lam == 1``, where the angle blows up, and warns when
    ``|phi| >= SMALL_ANGLE_LIMIT``.

    The exact method solves ``tan(2*phi) = 2*g*lam / (lam**2 - 1)`` on the
    branch that is continuous in g with ``phi(g=0) = 0``, so mode labels
    follow the bare oscillators rather than frequency ordering; at
    ``lam == 1`` it takes the limit from above, ``pi/4`` for positive g.
    It evaluates the full rotated quadratic form at that angle, which
    reproduces the eigenvalues of the potential matrix
    ``[[1, g*lam], [g*lam, lam**2]]``.

    At ``g == 0`` both methods return ``phi = 0`` and the bare frequencies
    ``(1, lam)``.
    """
    if not lam > 0:
        raise ValueError(f"frequency ratio must be positive, got {lam}")
    if not abs(g) < 1:
        raise ValueError(f"|g| < 1 required for stable modes, got g={g}")
    if g == 0:
        # no rotation needed; keep (1, lam) free of rounding
        return NormalModes(lam, g, 0.0, 1.0, lam, method)
    try:
        lam_sq = lam**2
    except OverflowError:  # a float raises; a NumPy scalar gives inf
        lam_sq = math.inf
    if lam_sq == math.inf:
        raise ValueError(f"frequency ratio {lam} is too large: lam**2 overflows")
    if method is FrequencyMethod.SMALL_ANGLE:
        if lam == 1:
            raise ValueError(
                "small-angle rotation is singular at lam = 1; use the exact method"
            )
        phi = g * lam / (lam_sq - 1)
        if abs(phi) >= SMALL_ANGLE_LIMIT:
            warnings.warn(
                f"rotation angle {phi:.3f} is outside the small-angle regime",
                stacklevel=2,
            )
        w1_sq = 1 - 2 * g * lam * phi + lam_sq * phi**2
        w2_sq = phi**2 + lam_sq + 2 * g * lam * phi
    else:
        if lam >= 1:
            phi = 0.5 * math.atan2(2 * g * lam, lam_sq - 1)
        else:
            # atan2 lands near +-pi/2; fold back to the branch through zero
            phi = 0.5 * math.atan(2 * g * lam / (lam_sq - 1))
        c, s = math.cos(phi), math.sin(phi)
        w1_sq = lam_sq * s**2 + c**2 - 2 * g * lam * s * c
        w2_sq = s**2 + lam_sq * c**2 + 2 * g * lam * s * c
    if w1_sq <= 0 or w2_sq <= 0:
        raise ValueError(
            f"non-positive squared frequency (omega1^2={w1_sq}, omega2^2={w2_sq})"
        )
    return NormalModes(lam, g, phi, math.sqrt(w1_sq), math.sqrt(w2_sq), method)
