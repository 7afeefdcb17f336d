"""Spectral entropies and the bipartite report."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubit_entropy.entropy import (
    NonPositiveQ,
    analyze_bipartite,
    spectrum_entropies,
    tsallis_entropy,
    von_neumann_entropy,
)
from qubit_entropy.model import CircuitParams, normal_modes
from qubit_entropy.state import density_from_array, thermal_density, transform_density
from qubit_entropy.transform import build_transform

REF = CircuitParams(lam=1.5, g=0.1)
REF_MODES = normal_modes(REF)


def random_state(rng, dim=4):
    a = rng.normal(size=(dim, dim))
    return density_from_array(a @ a.T)


def pipeline_state(temperature, params=REF, modes=REF_MODES):
    u = build_transform(params, modes, d=2)
    return transform_density(thermal_density(modes, temperature, 2), u)


class TestVonNeumann:
    def test_pure_state_zero(self):
        rho = density_from_array(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        rho = density_from_array(np.eye(4))
        assert_allclose(von_neumann_entropy(rho), math.log(4), rtol=1e-14)

    def test_half_mixed(self):
        rho = density_from_array(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert_allclose(von_neumann_entropy(rho), math.log(2), rtol=1e-14)


class TestSpectrumStacks:
    def test_von_neumann_rows_match_filtered_sums(self):
        # rows with 0 to 3 leading zeros: each row must sum exactly its
        # positive entries, in order, like the one-spectrum formula (a sum
        # over the whole row, zeros included, rounds differently)
        rng = np.random.default_rng(31)
        rows = []
        for k in range(40):
            p = np.sort(rng.uniform(0.5, 1.5, 9))
            p[:k % 4] = 0.0
            rows.append(p / p.sum())
        stack = np.array(rows)
        got = spectrum_entropies(stack, 1.0)
        for p, value in zip(stack, got):
            kept = p[p > 0]
            assert value == -(kept * np.log(kept)).sum()

    def test_leading_axes_preserved(self):
        stack = np.full((2, 3, 4), 0.25)
        for q in (0.5, 1.0, 2.0):
            got = spectrum_entropies(stack, q)
            assert got.shape == (2, 3)
            assert_allclose(got, tsallis_entropy(density_from_array(np.eye(4)), q))


class TestTsallis:
    def test_two_level_mixed_at_q_two(self):
        rho = density_from_array(np.diag([0.5, 0.5]))
        assert_allclose(tsallis_entropy(rho, 2.0), 0.5, rtol=1e-14)

    def test_pure_state_zero_for_any_q(self):
        rho = density_from_array(np.diag([1.0, 0.0, 0.0, 0.0]))
        for q in (0.3, 0.5, 1.0, 1.7, 3.0):
            assert tsallis_entropy(rho, q) == 0.0

    def test_continuity_window_returns_von_neumann(self):
        rho = density_from_array(np.diag([0.25, 0.25, 0.25, 0.25]))
        inside = tsallis_entropy(rho, 1.0 + 1e-8)
        assert inside == von_neumann_entropy(rho)

    def test_approach_to_von_neumann(self):
        rho = density_from_array(np.diag([0.25, 0.25, 0.25, 0.25]))
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(tsallis_entropy(rho, q) - math.log(4)) < 1e-4

    def test_q_to_one_limit_over_random_states(self):
        rng = np.random.default_rng(424242)
        for _ in range(50):
            rho = random_state(rng)
            base = von_neumann_entropy(rho)
            for eps in (1e-3, 1e-4, 1e-5):
                for q in (1.0 - eps, 1.0 + eps):
                    assert abs(tsallis_entropy(rho, q) - base) <= 10 * eps

    def test_nonpositive_q_rejected(self):
        rho = density_from_array(np.eye(2))
        with pytest.raises(NonPositiveQ):
            tsallis_entropy(rho, 0.0)
        with pytest.raises(NonPositiveQ):
            tsallis_entropy(rho, -1.0)

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            rho = random_state(rng)
            basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = density_from_array(basis @ rho.entries @ basis.T)
            for q in (0.5, 1.0, 2.0):
                assert_allclose(
                    tsallis_entropy(rotated, q), tsallis_entropy(rho, q), atol=1e-10
                )

    def test_entropy_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = random_state(rng)
            s1 = von_neumann_entropy(rho)
            assert -1e-12 <= s1 <= 2 * math.log(2) + 1e-12

    def test_monotone_in_q_on_thermal_family(self):
        qs = (0.5, 0.8, 1.0, 1.5, 2.0)
        for t in np.linspace(0.01, 0.5, 6):
            rho = pipeline_state(float(t))
            values = [tsallis_entropy(rho, q) for q in qs]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10


class TestAnalyzeBipartite:
    def test_product_state_zero_mutual_info(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            rho_a = (a @ a.T) / np.trace(a @ a.T)
            rho_b = (b @ b.T) / np.trace(b @ b.T)
            joint = density_from_array(np.kron(rho_a, rho_b))
            report = analyze_bipartite(joint, q=1.0)
            assert abs(report.mutual_info) < 1e-10

    def test_mutual_info_positive_in_validity_window(self):
        for t in np.linspace(0.01, 0.2, 8):
            report = analyze_bipartite(pipeline_state(float(t)), q=1.0)
            assert report.mutual_info >= 0.0

    def test_subadditivity_margin_on_pipeline_states(self):
        for t in (0.01, 0.1, 0.2, 0.35, 0.5):
            report = analyze_bipartite(pipeline_state(t), q=1.0)
            assert report.subadditivity_margin >= -1e-10

    def test_margin_frozen_at_reference(self):
        report = analyze_bipartite(pipeline_state(0.1), q=2.0)
        assert_allclose(report.subadditivity_margin, 0.0023261083, atol=1e-9)

    def test_report_fields_consistent(self):
        report = analyze_bipartite(pipeline_state(0.1), q=1.0)
        assert report.mutual_info == report.subadditivity_margin
        assert report.q == 1.0
        assert report.temperature == 0.1
        assert 0.999 < report.purity <= 1.0
        assert report.s_joint >= -1e-12
        assert report.s_first >= -1e-12
        assert report.s_second >= -1e-12

    def test_q_one_matches_von_neumann_pieces(self):
        rho = pipeline_state(0.15)
        report = analyze_bipartite(rho, q=1.0)
        assert_allclose(report.s_joint, von_neumann_entropy(rho), atol=1e-10)

    def test_non_square_dimension_rejected(self):
        rho = density_from_array(np.eye(5))
        with pytest.raises(ValueError):
            analyze_bipartite(rho, q=1.0)
