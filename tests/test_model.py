"""Circuit parameters, mixing angle, and normal-mode frequencies."""
import math
import warnings

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

    @pytest.mark.parametrize("action", ["ignore", "default", "error"])
    def test_numpy_ratio_overflow_rejected_under_any_filter(self, action):
        # the square of a NumPy scalar overflows as a float's does: no
        # RuntimeWarning, whatever the warnings filter makes of one
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match="too large"):
                normal_modes(np.float64(1e200), 0.1)


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
        # lam = 1 is outside the regime, however weak the coupling
        message = r"lambda=1\.0, g=0\.001 is outside the small-angle regime .*exact method"
        with pytest.raises(ValueError, match=message):
            normal_modes(1.0, 0.001)

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

    def test_large_angle_raises(self):
        # phi = g*lam/(lam^2 - 1) = 5.12 at lam = 1.05, g = 0.5
        message = r"lambda=1\.05, g=0\.5 is outside the small-angle regime .*exact method"
        with pytest.raises(ValueError, match=message):
            normal_modes(1.05, 0.5)
        # the exact method has no such regime, and warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normal_modes(1.05, 0.5, FrequencyMethod.EXACT).omega1 > 0

    @pytest.mark.parametrize("lam", [0.6, 1.5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_regime_boundary(self, lam, sign):
        def coupling(phi):
            # the g whose small-angle rotation angle at lam is sign * phi
            return sign * phi * abs(lam**2 - 1) / lam

        inside = normal_modes(lam, coupling(SMALL_ANGLE_LIMIT * (1 - 1e-9)))
        assert SMALL_ANGLE_LIMIT * (1 - 2e-9) < abs(inside.phi) < SMALL_ANGLE_LIMIT
        with pytest.raises(ValueError, match="outside the small-angle regime"):
            normal_modes(lam, coupling(SMALL_ANGLE_LIMIT * (1 + 1e-9)))


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

    def test_small_angle_frequency_error_is_second_order(self):
        # the small-angle formulas keep the phi^2 terms of s^2 = phi^2 but
        # take c^2 = 1, dropping the -phi^2 of c^2 = 1 - phi^2: their gap
        # to the exact frequencies is O(g^2) and falls 4x as g halves;
        # the consistent second-order formulas omega1^2 = 1 - g lam phi
        # and omega2^2 = lam^2 + g lam phi are O(g^4) and fall 16x
        for lam in (0.6, 1.5, 2.5):
            gaps = []
            for g in (0.04, 0.02, 0.01, 0.005):
                small = normal_modes(lam, g)
                exact = normal_modes(lam, g, method=FrequencyMethod.EXACT)
                shift = g * lam * small.phi
                consistent = (math.sqrt(1.0 - shift), math.sqrt(lam**2 + shift))
                gaps.append((
                    max(abs(small.omega1 - exact.omega1), abs(small.omega2 - exact.omega2)),
                    max(abs(consistent[0] - exact.omega1), abs(consistent[1] - exact.omega2)),
                ))
            ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
            assert_allclose(ratios[:, 0], 4.0, rtol=1e-3)
            assert_allclose(ratios[:, 1], 16.0, rtol=5e-3)

    def test_frequencies_positive_across_grid(self):
        # exact modes everywhere; small-angle modes where |phi| is in regime
        in_regime = 0
        for lam in np.linspace(1.1, 2.5, 8).tolist():
            for g in np.linspace(-0.6, 0.6, 7).tolist():
                methods = [FrequencyMethod.EXACT]
                if abs(g * lam / (lam**2 - 1)) < SMALL_ANGLE_LIMIT:
                    methods.append(FrequencyMethod.SMALL_ANGLE)
                    in_regime += 1
                for method in methods:
                    modes = normal_modes(lam, g, method)
                    assert modes.omega1 > 0
                    assert modes.omega2 > 0
        assert in_regime == 30
