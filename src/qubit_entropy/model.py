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
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "SMALL_ANGLE_LIMIT",
    "FrequencyMethod",
    "NormalModes",
    "normal_modes",
]

# |phi| at or above this is outside the regime the linearized rotation
# was derived for: the small-angle method raises ValueError there.
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
    ``phi = g*lam / (lam**2 - 1)`` and the linearized rotation
    ``(c, s) = (1, phi)``; outside its regime, ``|phi| >= SMALL_ANGLE_LIMIT``
    with ``lam == 1`` included, it raises ValueError.

    The exact method solves ``tan(2*phi) = 2*g*lam / (lam**2 - 1)`` on the
    branch that is continuous in g with ``phi(g=0) = 0``, so mode labels
    follow the bare oscillators rather than frequency ordering; at
    ``lam == 1`` it takes the limit from above, ``pi/4`` for positive g.
    Its ``(c, s) = (cos phi, sin phi)`` diagonalizes ``[[1, g*lam], [g*lam, lam**2]]``.

    Both evaluate one rotated quadratic form at their ``(c, s)``:
    ``omega1**2 = c**2 - 2*g*lam*s*c + lam**2*s**2`` and
    ``omega2**2 = s**2 + lam**2*c**2 + 2*g*lam*s*c``.

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
        lam_sq = float(lam) ** 2
    except OverflowError:  # a finite float raises; inf squares to inf
        lam_sq = math.inf
    if lam_sq == math.inf:
        raise ValueError(f"frequency ratio {lam} is too large: lam**2 overflows")
    if method is FrequencyMethod.SMALL_ANGLE:
        if abs(g * lam) >= SMALL_ANGLE_LIMIT * abs(lam_sq - 1):
            raise ValueError(
                f"lambda={lam}, g={g} is outside the small-angle regime"
                f" |phi| < {SMALL_ANGLE_LIMIT}; use the exact method (--frequencies exact)"
            )
        phi = g * lam / (lam_sq - 1)
        c, s = 1.0, phi
    else:
        if lam >= 1:
            phi = 0.5 * math.atan2(2 * g * lam, lam_sq - 1)
        else:
            # atan2 lands near +-pi/2; fold back to the branch through zero
            phi = 0.5 * math.atan(2 * g * lam / (lam_sq - 1))
        c, s = math.cos(phi), math.sin(phi)
    w1_sq = c**2 - 2 * g * lam * s * c + lam_sq * s**2
    w2_sq = s**2 + lam_sq * c**2 + 2 * g * lam * s * c
    if w1_sq <= 0 or w2_sq <= 0:
        raise ValueError(
            f"non-positive squared frequency (omega1^2={w1_sq}, omega2^2={w2_sq})"
        )
    return NormalModes(lam, g, phi, math.sqrt(w1_sq), math.sqrt(w2_sq), method)
