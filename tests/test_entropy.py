"""Spectral entropies and the bipartite margin."""
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dense_states, partial_traces, spectra, unit_trace
from qubit_entropy.entropy import bipartite_entropies, spectrum_entropies
from qubit_entropy.model import normal_modes
from qubit_entropy.state import thermal_spectra, thermal_weights
from qubit_entropy.transform import build_transform

REF_MODES = normal_modes(1.5, 0.1)
U_SMALL = build_transform(REF_MODES, d=2)


def random_state(rng, dim=4):
    a = rng.normal(size=(dim, dim))
    return unit_trace(a @ a.T)


def pipeline_state(temperature):
    return dense_states(thermal_weights(REF_MODES, [temperature], 2), U_SMALL)[0]


def entropy(rho, q):
    return float(spectrum_entropies(spectra(rho[None]), q)[0])


def bipartite(states, q):
    """The entropies of formed states, through the reference spectra."""
    return bipartite_entropies(spectra(states), spectra(partial_traces(states)), q)


def thermal_bipartite(temperatures, q):
    """The entropies of the reference circuit's thermal states, as the sweep takes them."""
    weights = thermal_weights(REF_MODES, temperatures, 2)
    return bipartite_entropies(*thermal_spectra(weights, U_SMALL), q)


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert entropy(unit_trace(np.diag([1.0, 0.0, 0.0, 0.0])), 1.0) == 0.0

    def test_maximally_mixed(self):
        assert_allclose(entropy(unit_trace(np.eye(4)), 1.0), math.log(4), rtol=1e-14)

    def test_half_mixed(self):
        rho = unit_trace(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert_allclose(entropy(rho, 1.0), math.log(2), rtol=1e-14)


class TestSpectrumStacks:
    def test_von_neumann_rows_match_filtered_sums(self):
        # rows with 0 to 3 leading zeros: each stacked row equals the same
        # row scored alone, bit for bit, so the result does not depend on
        # how a sweep chunks its temperatures; a zero entry adds nothing
        # and raises no log(0) warning, and the value is within 4 ulp of
        # the sum over the positive entries only
        rng = np.random.default_rng(31)
        rows = []
        for k in range(40):
            p = np.sort(rng.uniform(0.5, 1.5, 9))
            p[:k % 4] = 0.0
            rows.append(p / p.sum())
        stack = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum_entropies(stack, 1.0)
            alone = [spectrum_entropies(p[None], 1.0)[0] for p in stack]
        for p, value, single in zip(stack, got, alone):
            assert value == single
            others = p[p > 0][:-1]
            rest = others.sum()
            terms = (others * np.log(others)).sum() + (1.0 - rest) * np.log1p(-rest)
            assert abs(value - (0.0 - terms)) <= 4 * np.spacing(value)

    def test_leading_axes_preserved(self):
        stack = np.full((2, 3, 4), 0.25)
        for q in (0.5, 1.0, 2.0):
            got = spectrum_entropies(stack, q)
            assert got.shape == (2, 3)
            assert_allclose(got, entropy(unit_trace(np.eye(4)), q))


class TestTsallis:
    def test_two_level_mixed_at_q_two(self):
        assert_allclose(entropy(unit_trace(np.diag([0.5, 0.5])), 2.0), 0.5, rtol=1e-14)

    def test_pure_state_zero_for_any_q(self):
        rho = unit_trace(np.diag([1.0, 0.0, 0.0, 0.0]))
        for q in (0.3, 0.5, 1.0, 1.7, 3.0):
            assert entropy(rho, q) == 0.0

    def test_continuity_window_returns_von_neumann(self):
        rho = unit_trace(np.diag([0.25, 0.25, 0.25, 0.25]))
        assert entropy(rho, 1.0 + 1e-8) == entropy(rho, 1.0)

    def test_approach_to_von_neumann(self):
        rho = unit_trace(np.diag([0.25, 0.25, 0.25, 0.25]))
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(entropy(rho, q) - math.log(4)) < 1e-4

    def test_q_to_one_limit_over_random_states(self):
        rng = np.random.default_rng(424242)
        for _ in range(50):
            rho = random_state(rng)
            base = entropy(rho, 1.0)
            for eps in (1e-3, 1e-4, 1e-5):
                for q in (1.0 - eps, 1.0 + eps):
                    assert abs(entropy(rho, q) - base) <= 10 * eps

    def test_nonpositive_q_rejected(self):
        rho = unit_trace(np.eye(2))
        with pytest.raises(ValueError, match="entropic index must be positive"):
            entropy(rho, 0.0)
        with pytest.raises(ValueError, match="entropic index must be positive"):
            entropy(rho, -1.0)

    def test_nan_q_rejected(self):
        spectrum = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="entropic index must be positive"):
            spectrum_entropies(spectrum, float("nan"))
        with pytest.raises(ValueError, match="entropic index must be positive"):
            bipartite_entropies(np.array([[0.25] * 4]), np.stack([spectrum, spectrum]), np.nan)

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            rho = random_state(rng)
            basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = unit_trace(basis @ rho @ basis.T)
            for q in (0.5, 1.0, 2.0):
                assert_allclose(entropy(rotated, q), entropy(rho, q), atol=1e-10)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = random_state(rng)
            s1 = entropy(rho, 1.0)
            assert -1e-12 <= s1 <= 2 * math.log(2) + 1e-12

    def test_monotone_in_q_on_thermal_family(self):
        qs = (0.5, 0.8, 1.0, 1.5, 2.0)
        for t in np.linspace(0.01, 0.5, 6):
            rho = pipeline_state(float(t))
            values = [entropy(rho, q) for q in qs]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10


class TestAnalyzeBipartite:
    def test_product_state_zero_mutual_info(self):
        rng = np.random.default_rng(8)
        products = []
        for _ in range(10):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            rho_a = (a @ a.T) / np.trace(a @ a.T)
            rho_b = (b @ b.T) / np.trace(b @ b.T)
            products.append(np.kron(rho_a, rho_b))
        margin = bipartite(unit_trace(np.stack(products)), 1.0)[3]
        assert np.all(np.abs(margin) < 1e-10)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_negative_margin_beyond_rounding_kept(self, q):
        # pure marginals under a mixed joint spectrum: no state has them,
        # and the margin -S_joint is returned as it is, not rounded to 0
        joint = np.array([[0.0, 0.0, 0.5, 0.5]])
        marginals = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
        s_joint, s_first, s_second, margin = bipartite_entropies(joint, marginals, q)
        assert s_first == s_second == 0.0
        assert margin[0] == -s_joint[0] < -0.3

    def test_mutual_info_positive_in_validity_window(self):
        margin = thermal_bipartite(np.linspace(0.01, 0.2, 8), 1.0)[3]
        assert np.all(margin >= 0.0)

    def test_subadditivity_margin_on_pipeline_states(self):
        margin = thermal_bipartite([0.01, 0.1, 0.2, 0.35, 0.5], 1.0)[3]
        assert np.all(margin >= -1e-10)

    def test_margin_frozen_at_reference(self):
        margin = thermal_bipartite([0.1], 2.0)[3]
        assert_allclose(margin, [0.0023261083], atol=1e-9)

    def test_report_fields_consistent(self):
        s_joint, s_first, s_second, margin = thermal_bipartite([0.1], 1.0)
        assert margin == s_first + s_second - s_joint
        assert s_joint >= -1e-12
        assert s_first >= -1e-12
        assert s_second >= -1e-12

    def test_q_one_matches_von_neumann_pieces(self):
        rho = pipeline_state(0.15)
        s_joint = thermal_bipartite([0.15], 1.0)[0]
        p = np.linalg.eigvalsh(rho)
        p = p[p > 0]
        assert_allclose(s_joint, -(p * np.log(p)).sum(), atol=1e-10)

    def test_non_square_dimension_rejected(self):
        # 5 levels cannot split into two equal modes
        with pytest.raises(ValueError):
            bipartite(unit_trace(np.eye(5)[None]), 1.0)
