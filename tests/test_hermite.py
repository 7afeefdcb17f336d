"""Hermite recurrences, oscillator eigenfunctions, and Gaussian integrals."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubit_entropy.hermite import (
    GaussianQuadraticForm,
    NotPositiveDefinite,
    UnsupportedDegree,
    gauss2d_integral,
    gauss2d_moment,
    hermite_poly,
    ho_eigenfunction,
    ho_eigenfunctions,
    quad2d,
)


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


class TestHermitePoly:
    def test_matches_explicit_table(self):
        x = np.linspace(-3.0, 3.0, 41)
        for k in range(7):
            assert_allclose(hermite_poly(k, x), explicit_hermite(k, x), rtol=1e-12)

    def test_scalar_input_gives_scalar(self):
        value = hermite_poly(3, 0.5)
        assert isinstance(value, float)
        assert_allclose(value, 8 * 0.5**3 - 12 * 0.5, rtol=1e-14)

    def test_reference_points(self):
        assert hermite_poly(0, 3.7) == 1.0
        assert hermite_poly(1, 0.5) == 1.0
        assert hermite_poly(2, 1.0) == 2.0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)


class TestEigenfunction:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_orthonormal(self, scale):
        # 1-D Gauss-Hermite in the scaled variable integrates the pair exactly
        t, w = np.polynomial.hermite.hermgauss(80)
        v = np.exp(np.log(w) + t * t)
        x = t * scale
        for n in range(6):
            fn = ho_eigenfunction(n, x, scale)
            for m in range(6):
                fm = ho_eigenfunction(m, x, scale)
                overlap = np.sum(v * fn * fm) * scale
                assert_allclose(overlap, 1.0 if n == m else 0.0, atol=1e-10)

    def test_ground_state_peak(self):
        # psi_0(0) = (pi * ls^2)^(-1/4)
        assert_allclose(
            ho_eigenfunction(0, 0.0, 1.3), (math.pi * 1.3**2) ** -0.25, rtol=1e-14
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ho_eigenfunction(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            ho_eigenfunction(0, 0.0, 0.0)


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
            np.testing.assert_array_equal(table[n], ho_eigenfunction(n, grid, scale))
            # the definition, composed from the reference recurrence
            y = grid / scale
            norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            direct = norm / math.sqrt(scale) * np.exp(-0.5 * y * y) * hermite_poly(n, y)
            np.testing.assert_array_equal(table[n], direct)

    def test_underflow_gives_exact_zeros(self):
        table = ho_eigenfunctions(20, np.array([45.0, -60.0]), 1.0)
        assert np.all(table == 0.0)

    def test_scalar_point_gives_one_value_per_level(self):
        table = ho_eigenfunctions(3, 0.4, 1.3)
        assert table.shape == (3,)
        assert table[2] == ho_eigenfunction(2, 0.4, 1.3)
        assert isinstance(ho_eigenfunction(2, 0.4, 1.3), float)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ho_eigenfunctions(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ho_eigenfunctions(2, 0.0, -1.0)


def random_pd_form(rng, with_linear=False):
    # eigenvalues kept in [0.3, 5] so the forms stay well conditioned
    mu = rng.uniform(0.3, 5.0, size=2)
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    q = np.array([[c, -s], [s, c]])
    a = q @ np.diag(mu) @ q.T
    b1, b2 = (rng.uniform(-1.0, 1.0, size=2) if with_linear else (0.0, 0.0))
    return GaussianQuadraticForm(
        a11=a[0, 0], a22=a[1, 1], a12=a[0, 1], b1=float(b1), b2=float(b2)
    )


class TestGauss2dIntegral:
    def test_isotropic_reference(self):
        form = GaussianQuadraticForm(a11=1.0, a22=1.0, a12=0.0)
        assert_allclose(gauss2d_integral(form), math.pi, rtol=1e-14)

    def test_matches_quadrature_with_linear_terms(self):
        # quad2d integrates f as given, so f carries the Gaussian factor
        rng = np.random.default_rng(314159)
        for _ in range(100):
            form = random_pd_form(rng, with_linear=True)
            pure = GaussianQuadraticForm(
                a11=form.a11, a22=form.a22, a12=form.a12
            )

            def integrand(x1, x2):
                quad = form.a11 * x1**2 + form.a22 * x2**2 + 2 * form.a12 * x1 * x2
                return np.exp(-quad + form.b1 * x1 + form.b2 * x2)

            numeric = quad2d(integrand, order=48, weight=pure)
            assert_allclose(gauss2d_integral(form), numeric, rtol=1e-10)

    def test_indefinite_form_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gauss2d_integral(GaussianQuadraticForm(a11=1.0, a22=1.0, a12=2.0))


class TestGauss2dMoment:
    def test_matches_quadrature_up_to_quartic(self):
        rng = np.random.default_rng(271828)
        powers = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
        for _ in range(100):
            form = random_pd_form(rng)
            for i, j in powers:
                def integrand(x1, x2, i=i, j=j):
                    quad = (
                        form.a11 * x1**2
                        + form.a22 * x2**2
                        + 2 * form.a12 * x1 * x2
                    )
                    return x1**i * x2**j * np.exp(-quad)

                numeric = quad2d(integrand, order=32, weight=form)
                closed = gauss2d_moment(form, (i, j))
                assert_allclose(closed, numeric, rtol=1e-10, atol=1e-12)

    def test_odd_moments_are_exact_zero(self):
        form = GaussianQuadraticForm(a11=2.0, a22=1.5, a12=0.4)
        for powers in [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3)]:
            assert gauss2d_moment(form, powers) == 0.0

    def test_degree_cap(self):
        form = GaussianQuadraticForm(a11=1.0, a22=1.0, a12=0.0)
        with pytest.raises(UnsupportedDegree):
            gauss2d_moment(form, (3, 2))
        with pytest.raises(UnsupportedDegree):
            gauss2d_moment(form, (-1, 0))

    def test_linear_terms_rejected(self):
        form = GaussianQuadraticForm(a11=1.0, a22=1.0, a12=0.0, b1=0.5)
        with pytest.raises(ValueError):
            gauss2d_moment(form, (2, 0))


class TestQuad2d:
    def test_unit_weight_gaussian(self):
        # integral of exp(-x1^2 - x2^2 + x1 x2) over the plane
        value = quad2d(lambda x1, x2: np.exp(-(x1**2) - x2**2 + x1 * x2))
        assert_allclose(value, 2 * math.pi / math.sqrt(3.0), rtol=1e-10)

    def test_polynomial_exactness_under_weight(self):
        form = GaussianQuadraticForm(a11=1.2, a22=0.8, a12=0.3)

        def integrand(x1, x2):
            quad = 1.2 * x1**2 + 0.8 * x2**2 + 0.6 * x1 * x2
            return x1**2 * np.exp(-quad)

        # degree 2 is exact already at the minimum order
        low = quad2d(integrand, order=16, weight=form)
        high = quad2d(integrand, order=64, weight=form)
        assert_allclose(low, high, rtol=1e-13)
        assert_allclose(low, gauss2d_moment(form, (2, 0)), rtol=1e-13)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            quad2d(lambda x1, x2: x1 * 0 + 1.0, order=8)
