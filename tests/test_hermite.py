"""Oscillator eigenfunctions, and the Gaussian integrals of tests/oracles.py."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import gauss2d_integral, gauss2d_moment, quad2d
from qubit_entropy.hermite import ho_eigenfunctions
from qubit_entropy.model import FrequencyMethod, NormalModes
from qubit_entropy.transform import build_transform


def explicit_hermite(k, x):
    table = {
        0: lambda x: np.ones_like(x, dtype=float),
        1: lambda x: 2 * x,
        2: lambda x: 4 * x**2 - 2,
        3: lambda x: 8 * x**3 - 12 * x,
        4: lambda x: 16 * x**4 - 48 * x**2 + 12,
        5: lambda x: 32 * x**5 - 160 * x**3 + 120 * x,
        6: lambda x: 64 * x**6 - 480 * x**4 + 720 * x**2 - 120,
    }
    return table[k](np.asarray(x, dtype=float))


def explicit_eigenfunction(n, x, scale):
    """psi_n from the explicit Hermite table, composed in the order of the
    documented row formula, so its Gaussian factor rounds the same way."""
    y = np.asarray(x, dtype=float) / scale
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return norm / math.sqrt(scale) * np.exp(-0.5 * y * y) * explicit_hermite(n, y)


class TestHermitePoly:
    # the Hermite polynomials enter through the rows of ho_eigenfunctions
    def test_matches_explicit_table(self):
        x = np.linspace(-3.0, 3.0, 41)
        table = ho_eigenfunctions(7, x, 1.0)
        for k in range(7):
            assert_allclose(table[k], explicit_eigenfunction(k, x, 1.0), rtol=1e-12)

    def test_scalar_input_gives_scalar(self):
        value = ho_eigenfunctions(4, 0.5, 1.0)[3]
        assert value.shape == ()
        norm = 1.0 / math.sqrt(8 * 6 * math.sqrt(math.pi))
        assert_allclose(value, norm * math.exp(-0.125) * (8 * 0.5**3 - 12 * 0.5), rtol=1e-14)

    def test_reference_points(self):
        # H_0(3.7) = 1, H_1(0.5) = 1 and H_2(1) = 2, times norm_n exp(-x^2/2)
        table = ho_eigenfunctions(3, np.array([3.7, 0.5, 1.0]), 1.0)
        root = math.pi**-0.25
        assert_allclose(table[0, 0], root * math.exp(-3.7**2 / 2), rtol=1e-14)
        assert_allclose(table[1, 1], root / math.sqrt(2) * math.exp(-0.125), rtol=1e-14)
        assert_allclose(table[2, 2], root / math.sqrt(2) * math.exp(-0.5), rtol=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            ho_eigenfunctions(-1, 0.0, 1.0)


class TestEigenfunction:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_orthonormal(self, scale):
        # 1-D Gauss-Hermite in the scaled variable integrates the pair exactly
        t, w = np.polynomial.hermite.hermgauss(80)
        v = np.exp(np.log(w) + t * t)
        table = ho_eigenfunctions(6, t * scale, scale)
        overlaps = (table * v) @ table.T * scale
        assert_allclose(overlaps, np.eye(6), rtol=0, atol=1e-10)

    def test_ground_state_peak(self):
        # psi_0(0) = (pi * ls^2)^(-1/4)
        assert_allclose(
            ho_eigenfunctions(1, 0.0, 1.3)[0], (math.pi * 1.3**2) ** -0.25, rtol=1e-14
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ho_eigenfunctions(1, 0.0, 0.0)
        with pytest.raises(ValueError, match="length scale must be positive"):
            ho_eigenfunctions(2, 0.0, float("nan"))


# |x| / length_scale above about 37.6 puts exp(-y^2/2) below the normal
# range, and above about 38.6 it underflows to zero
UNDERFLOW_POINTS = np.array(
    [-60.0, -38.2, -30.0, -2.5, -1e-3, 0.0, 0.7, 3.3, 37.9, 38.5, 45.0, 60.0]
)


class TestEigenfunctionTable:
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("scale", [1.0, 0.6, 1.7])
    def test_rows_equal_single_eigenfunctions_bit_for_bit(self, d, scale):
        x = np.concatenate([np.linspace(-6.0, 6.0, 37), UNDERFLOW_POINTS * scale])
        grid = np.stack([x, x[::-1] * 0.5])
        table = ho_eigenfunctions(d, grid, scale)
        assert table.shape == (d, *grid.shape)
        for n in range(d):
            # row n of every longer table is psi_n, bit for bit
            np.testing.assert_array_equal(table[n], ho_eigenfunctions(n + 1, grid, scale)[n])
            if n < 7:
                assert_allclose(table[n], explicit_eigenfunction(n, grid, scale), rtol=1e-12)

    def test_underflow_gives_exact_zeros(self):
        table = ho_eigenfunctions(20, np.array([45.0, -60.0]), 1.0)
        assert np.all(table == 0.0)

    def test_scalar_point_gives_one_value_per_level(self):
        table = ho_eigenfunctions(3, 0.4, 1.3)
        assert table.shape == (3,)
        assert table[2] == ho_eigenfunctions(3, np.array([0.4]), 1.3)[2, 0]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ho_eigenfunctions(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ho_eigenfunctions(2, 0.0, -1.0)


def random_pd_form(rng):
    """A random positive definite 2 x 2 matrix, eigenvalues in [0.3, 5] so
    that it stays well conditioned."""
    mu = rng.uniform(0.3, 5.0, size=2)
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    q = np.array([[c, -s], [s, c]])
    return q @ np.diag(mu) @ q.T


def gaussian(a):
    """``exp(-x^T a x)`` as a function of the two coordinates."""
    return lambda x1, x2: np.exp(-(a[0, 0] * x1**2 + a[1, 1] * x2**2 + 2 * a[0, 1] * x1 * x2))


class TestGauss2dIntegral:
    def test_isotropic_reference(self):
        assert_allclose(gauss2d_integral(np.eye(2), np.zeros(2)), math.pi, rtol=1e-14)

    def test_matches_quadrature_with_linear_terms(self):
        # quad2d integrates f as given, so f carries the Gaussian factor
        rng = np.random.default_rng(314159)
        for _ in range(100):
            a = random_pd_form(rng)
            b = rng.uniform(-1.0, 1.0, size=2)

            def integrand(x1, x2):
                return gaussian(a)(x1, x2) * np.exp(b[0] * x1 + b[1] * x2)

            numeric = quad2d(integrand, a, order=48)
            assert_allclose(gauss2d_integral(a, b), numeric, rtol=1e-10)

    def test_indefinite_form_rejected(self):
        # the check build_transform makes before it integrates: a negative
        # mode frequency makes a11 negative, a NaN one makes the form NaN
        for omega1, omega2 in [(-5.0, 1.5), (0.1, float("nan"))]:
            modes = NormalModes(1.5, 0.1, 0.1, omega1, omega2, FrequencyMethod.SMALL_ANGLE)
            with pytest.raises(ValueError, match="not positive definite"):
                build_transform(modes, 2)

    def test_nonpositive_frequency_rejected(self):
        # a negative frequency whose form is still positive definite: rejected
        # by name before any square root of it is taken
        for omega1, omega2, name in [(-0.1, 1.5, "omega1"), (0.1, -0.1, "omega2")]:
            modes = NormalModes(1.5, 0.1, 0.1, omega1, omega2, FrequencyMethod.SMALL_ANGLE)
            with pytest.raises(ValueError, match=f"{name}=-0.1 is not positive"):
                build_transform(modes, 2)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    @pytest.mark.parametrize("g, phi", [(0.1, 0.1), (0.0, 0.0)])
    def test_nonpositive_ratio_rejected(self, lam, g, phi):
        # modes built directly, past the checks of normal_modes: rejected
        # also at g = 0, where the tensor would be the identity; a NaN lam
        # makes the form NaN
        modes = NormalModes(lam, g, phi, 1.0, 1.5, FrequencyMethod.SMALL_ANGLE)
        with pytest.raises(ValueError, match="not positive"):
            build_transform(modes, 2)


class TestGauss2dMoment:
    def test_matches_quadrature_up_to_quartic(self):
        rng = np.random.default_rng(271828)
        powers = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
        for _ in range(100):
            a = random_pd_form(rng)
            for i, j in powers:
                def integrand(x1, x2, i=i, j=j):
                    return x1**i * x2**j * gaussian(a)(x1, x2)

                numeric = quad2d(integrand, a, order=32)
                closed = gauss2d_moment(a, i, j)
                assert_allclose(closed, numeric, rtol=1e-10, atol=1e-12)

    def test_odd_moments_are_exact_zero(self):
        a = np.array([[2.0, 0.4], [0.4, 1.5]])
        for i, j in [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3)]:
            assert gauss2d_moment(a, i, j) == 0.0


class TestQuad2d:
    def test_unit_weight_gaussian(self):
        # integral of exp(-x1^2 - x2^2 + x1 x2) over the plane, on nodes
        # mapped through the unit weight exp(-x1^2 - x2^2)
        value = quad2d(lambda x1, x2: np.exp(-(x1**2) - x2**2 + x1 * x2), np.eye(2))
        assert_allclose(value, 2 * math.pi / math.sqrt(3.0), rtol=1e-10)

    def test_polynomial_exactness_under_weight(self):
        a = np.array([[1.2, 0.3], [0.3, 0.8]])

        def integrand(x1, x2):
            return x1**2 * gaussian(a)(x1, x2)

        # degree 2 is exact already at a low order
        low = quad2d(integrand, a, order=16)
        high = quad2d(integrand, a, order=64)
        assert_allclose(low, high, rtol=1e-13)
        assert_allclose(low, gauss2d_moment(a, 2, 0), rtol=1e-13)
