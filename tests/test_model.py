"""Circuit parameters, mixing angle, and normal-mode frequencies."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubit_entropy.model import (
    SMALL_ANGLE_LIMIT,
    FrequencyMethod,
    normal_modes,
)


def potential_matrix(lam, g):
    return np.array(
        [
            [1.0, g * lam],
            [g * lam, lam**2],
        ]
    )


class TestCircuitChecks:
    @pytest.mark.parametrize("method", list(FrequencyMethod))
    def test_reference_point(self, method):
        modes = normal_modes(1.5, 0.1, method)
        assert modes.lam == 1.5
        assert modes.g == 0.1

    @pytest.mark.parametrize("method", list(FrequencyMethod))
    @pytest.mark.parametrize("g", [1.0, -1.0, 1.2, math.nan])
    def test_unstable_coupling_rejected(self, g, method):
        with pytest.raises(ValueError, match="stable modes"):
            normal_modes(1.5, g, method)

    @pytest.mark.parametrize("method", list(FrequencyMethod))
    @pytest.mark.parametrize("lam", [0.0, -1.5, math.nan])
    def test_nonpositive_ratio_rejected(self, lam, method):
        # checked before g, so also at g = 0, where no rotation is computed
        for g in (0.1, 0.0):
            with pytest.raises(ValueError, match="must be positive"):
                normal_modes(lam, g, method)

    @pytest.mark.parametrize("method", list(FrequencyMethod))
    def test_ratio_whose_square_overflows_rejected(self, method):
        # lam**2 raises OverflowError above about 1.34e154
        with pytest.raises(ValueError, match="too large"):
            normal_modes(1e200, 0.1, method)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="too large"):
            normal_modes(np.float64(1e200), 0.1, method)
        assert normal_modes(1e150, 0.1, method).lam == 1e150
        # no square is taken at g = 0
        assert normal_modes(1e200, 0.0, method).omega2 == 1e200


class TestRotationAngle:
    def test_small_angle_reference_value(self):
        # gl/(l^2-1) = 0.15/1.25 at the reference point
        assert_allclose(normal_modes(1.5, 0.1).phi, 0.12, rtol=1e-14)

    def test_small_angle_second_reference(self):
        assert_allclose(normal_modes(2.0, 0.05).phi, 0.1 / 3.0, rtol=1e-14)

    def test_exact_angle_reference_value(self):
        expected = 0.5 * math.atan2(0.3, 1.25)
        assert_allclose(normal_modes(1.5, 0.1, FrequencyMethod.EXACT).phi, expected, rtol=1e-14)

    def test_exact_equals_small_at_leading_order(self):
        # gap grows as (4/3)*phi^3, so a 1.5 prefactor bounds it
        for lam, g in [(1.5, 0.1), (2.0, 0.05), (1.3, 0.02)]:
            phi = normal_modes(lam, g).phi
            gap = abs(normal_modes(lam, g, FrequencyMethod.EXACT).phi - phi)
            assert gap < 1.5 * abs(phi) ** 3

    def test_degenerate_ratio_small_angle_raises(self):
        with pytest.raises(ValueError, match="singular at lam = 1"):
            normal_modes(1.0, 0.1)

    def test_degenerate_ratio_exact_is_quarter_pi(self):
        angle = normal_modes(1.0, 0.1, FrequencyMethod.EXACT).phi
        assert_allclose(angle, math.pi / 4, rtol=1e-15)

    def test_zero_coupling_angle_is_exact_zero(self):
        assert normal_modes(1.5, 0.0, FrequencyMethod.EXACT).phi == 0.0

    def test_inverted_ratio_branch_continuous(self):
        # below lam=1 the angle must still vanish with g
        for g in (1e-3, 1e-5, 1e-7):
            angle = normal_modes(0.7, g, FrequencyMethod.EXACT).phi
            assert abs(angle) < 2.0 * g

    def test_large_angle_warns(self):
        with pytest.warns(UserWarning) as record:
            phi = normal_modes(1.05, 0.5).phi
        assert abs(phi) >= SMALL_ANGLE_LIMIT
        # the warning points at the caller of normal_modes
        assert record[0].filename == __file__


class TestNormalModes:
    def test_small_angle_reference_frequencies(self):
        modes = normal_modes(1.5, 0.1)
        assert modes.method is FrequencyMethod.SMALL_ANGLE
        assert_allclose(modes.omega1**2, 0.9964, rtol=1e-12)
        assert_allclose(modes.omega2**2, 2.3004, rtol=1e-12)

    def test_exact_frequencies_match_eigenvalues(self):
        rng = np.random.default_rng(20260819)
        for _ in range(50):
            lam = rng.uniform(0.5, 3.0)
            g = rng.uniform(-0.8, 0.8)
            modes = normal_modes(lam, g, method=FrequencyMethod.EXACT)
            eigs = np.linalg.eigvalsh(potential_matrix(lam, g))
            got = sorted([modes.omega1**2, modes.omega2**2])
            assert_allclose(got, eigs, rtol=1e-12, atol=1e-14)

    def test_exact_frequency_products_and_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lam = rng.uniform(0.6, 2.5)
            g = rng.uniform(-0.7, 0.7)
            modes = normal_modes(lam, g, method=FrequencyMethod.EXACT)
            assert_allclose(
                modes.omega1**2 * modes.omega2**2, lam**2 * (1 - g**2), rtol=1e-12
            )
            assert_allclose(
                modes.omega1**2 + modes.omega2**2, 1 + lam**2, rtol=1e-12
            )

    def test_rotation_of_each_method(self):
        # the coordinate map build_transform substitutes: the exact rotation,
        # or its linearization (1, phi)
        exact = normal_modes(1.5, 0.1, FrequencyMethod.EXACT)
        assert exact.rotation == (math.cos(exact.phi), math.sin(exact.phi))
        small = normal_modes(1.5, 0.1)
        assert small.rotation == (1.0, small.phi)

    def test_zero_coupling_shortcut_is_bitwise(self):
        for method in FrequencyMethod:
            modes = normal_modes(1.7, 0.0, method=method)
            assert modes.phi == 0.0
            assert modes.omega1 == 1.0
            assert modes.omega2 == 1.7

    def test_small_angle_matches_exact_at_weak_coupling(self):
        # truncation error in the squared frequencies is phi^2 for the
        # lower mode and lam^2 phi^2 for the upper one, so phi^2 bounds
        # the frequency gap itself once omega >= 1
        for g in (0.01, 0.003, 0.001):
            small = normal_modes(1.5, g)
            exact = normal_modes(1.5, g, method=FrequencyMethod.EXACT)
            phi = small.phi
            assert abs(small.omega1 - exact.omega1) < phi**2
            assert abs(small.omega2 - exact.omega2) < phi**2

    def test_frequency_gap_bounded_by_coupling_squared(self):
        # the small-angle error in the squared frequencies is phi^2 and
        # lam^2 phi^2, giving |dOmega| <= C g^2 with C = 4.47 at the
        # worst grid corner (lam = 1.2); frozen with headroom at 5
        for lam in (1.2, 1.5, 2.0):
            for g in (0.02, 0.05, 0.1):
                small = normal_modes(lam, g)
                exact = normal_modes(lam, g, method=FrequencyMethod.EXACT)
                assert abs(small.omega1 - exact.omega1) <= 5.0 * g**2
                assert abs(small.omega2 - exact.omega2) <= 5.0 * g**2

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_frequencies_positive_across_grid(self):
        for lam in np.linspace(1.1, 2.5, 8):
            for g in np.linspace(-0.6, 0.6, 7):
                modes = normal_modes(float(lam), float(g))
                assert modes.omega1 > 0
                assert modes.omega2 > 0
