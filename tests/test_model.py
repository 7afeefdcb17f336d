"""Circuit parameters, mixing angle, and normal-mode frequencies."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubit_entropy.model import (
    SMALL_ANGLE_LIMIT,
    CircuitParams,
    FrequencyMethod,
    normal_modes,
)


def potential_matrix(params):
    return np.array(
        [
            [1.0, params.g * params.lam],
            [params.g * params.lam, params.lam**2],
        ]
    )


class TestCircuitParams:
    def test_reference_point(self):
        params = CircuitParams(lam=1.5, g=0.1)
        assert params.lam == 1.5
        assert params.g == 0.1

    @pytest.mark.parametrize("g", [1.0, -1.0, 1.2])
    def test_unstable_coupling_rejected(self, g):
        with pytest.raises(ValueError):
            CircuitParams(lam=1.5, g=g)

    @pytest.mark.parametrize("lam", [0.0, -1.5])
    def test_nonpositive_ratio_rejected(self, lam):
        with pytest.raises(ValueError):
            CircuitParams(lam=lam, g=0.1)


class TestRotationAngle:
    def test_small_angle_reference_value(self):
        # gl/(l^2-1) = 0.15/1.25 at the reference point
        params = CircuitParams(lam=1.5, g=0.1)
        assert_allclose(normal_modes(params).phi, 0.12, rtol=1e-14)

    def test_small_angle_second_reference(self):
        params = CircuitParams(lam=2.0, g=0.05)
        assert_allclose(normal_modes(params).phi, 0.1 / 3.0, rtol=1e-14)

    def test_exact_angle_reference_value(self):
        params = CircuitParams(lam=1.5, g=0.1)
        expected = 0.5 * math.atan2(0.3, 1.25)
        assert_allclose(normal_modes(params, FrequencyMethod.EXACT).phi, expected, rtol=1e-14)

    def test_exact_equals_small_at_leading_order(self):
        # gap grows as (4/3)*phi^3, so a 1.5 prefactor bounds it
        for lam, g in [(1.5, 0.1), (2.0, 0.05), (1.3, 0.02)]:
            params = CircuitParams(lam=lam, g=g)
            phi = normal_modes(params).phi
            gap = abs(normal_modes(params, FrequencyMethod.EXACT).phi - phi)
            assert gap < 1.5 * abs(phi) ** 3

    def test_degenerate_ratio_small_angle_raises(self):
        with pytest.raises(ValueError, match="singular at lam = 1"):
            normal_modes(CircuitParams(lam=1.0, g=0.1))

    def test_degenerate_ratio_exact_is_quarter_pi(self):
        angle = normal_modes(CircuitParams(lam=1.0, g=0.1), FrequencyMethod.EXACT).phi
        assert_allclose(angle, math.pi / 4, rtol=1e-15)

    def test_zero_coupling_angle_is_exact_zero(self):
        assert normal_modes(CircuitParams(lam=1.5, g=0.0), FrequencyMethod.EXACT).phi == 0.0

    def test_inverted_ratio_branch_continuous(self):
        # below lam=1 the angle must still vanish with g
        for g in (1e-3, 1e-5, 1e-7):
            angle = normal_modes(CircuitParams(lam=0.7, g=g), FrequencyMethod.EXACT).phi
            assert abs(angle) < 2.0 * g

    def test_large_angle_warns(self):
        params = CircuitParams(lam=1.05, g=0.5)
        with pytest.warns(UserWarning) as record:
            phi = normal_modes(params).phi
        assert abs(phi) >= SMALL_ANGLE_LIMIT
        # the warning points at the caller of normal_modes
        assert record[0].filename == __file__


class TestNormalModes:
    def test_small_angle_reference_frequencies(self):
        modes = normal_modes(CircuitParams(lam=1.5, g=0.1))
        assert modes.method is FrequencyMethod.SMALL_ANGLE
        assert_allclose(modes.omega1**2, 0.9964, rtol=1e-12)
        assert_allclose(modes.omega2**2, 2.3004, rtol=1e-12)

    def test_exact_frequencies_match_eigenvalues(self):
        rng = np.random.default_rng(20260819)
        for _ in range(50):
            lam = rng.uniform(0.5, 3.0)
            g = rng.uniform(-0.8, 0.8)
            params = CircuitParams(lam=lam, g=g)
            modes = normal_modes(params, method=FrequencyMethod.EXACT)
            eigs = np.linalg.eigvalsh(potential_matrix(params))
            got = sorted([modes.omega1**2, modes.omega2**2])
            assert_allclose(got, eigs, rtol=1e-12, atol=1e-14)

    def test_exact_frequency_products_and_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lam = rng.uniform(0.6, 2.5)
            g = rng.uniform(-0.7, 0.7)
            modes = normal_modes(
                CircuitParams(lam=lam, g=g), method=FrequencyMethod.EXACT
            )
            assert_allclose(
                modes.omega1**2 * modes.omega2**2, lam**2 * (1 - g**2), rtol=1e-12
            )
            assert_allclose(
                modes.omega1**2 + modes.omega2**2, 1 + lam**2, rtol=1e-12
            )

    def test_zero_coupling_shortcut_is_bitwise(self):
        for method in FrequencyMethod:
            modes = normal_modes(CircuitParams(lam=1.7, g=0.0), method=method)
            assert modes.phi == 0.0
            assert modes.omega1 == 1.0
            assert modes.omega2 == 1.7

    def test_small_angle_matches_exact_at_weak_coupling(self):
        # truncation error in the squared frequencies is phi^2 for the
        # lower mode and lam^2 phi^2 for the upper one, so phi^2 bounds
        # the frequency gap itself once omega >= 1
        for g in (0.01, 0.003, 0.001):
            params = CircuitParams(lam=1.5, g=g)
            small = normal_modes(params)
            exact = normal_modes(params, method=FrequencyMethod.EXACT)
            phi = small.phi
            assert abs(small.omega1 - exact.omega1) < phi**2
            assert abs(small.omega2 - exact.omega2) < phi**2

    def test_frequency_gap_bounded_by_coupling_squared(self):
        # the small-angle error in the squared frequencies is phi^2 and
        # lam^2 phi^2, giving |dOmega| <= C g^2 with C = 4.47 at the
        # worst grid corner (lam = 1.2); frozen with headroom at 5
        for lam in (1.2, 1.5, 2.0):
            for g in (0.02, 0.05, 0.1):
                params = CircuitParams(lam=lam, g=g)
                small = normal_modes(params)
                exact = normal_modes(params, method=FrequencyMethod.EXACT)
                assert abs(small.omega1 - exact.omega1) <= 5.0 * g**2
                assert abs(small.omega2 - exact.omega2) <= 5.0 * g**2

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_frequencies_positive_across_grid(self):
        for lam in np.linspace(1.1, 2.5, 8):
            for g in np.linspace(-0.6, 0.6, 7):
                modes = normal_modes(CircuitParams(lam=float(lam), g=float(g)))
                assert modes.omega1 > 0
                assert modes.omega2 > 0
