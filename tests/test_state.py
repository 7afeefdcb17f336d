"""Thermal states, basis change, reduction, and validity diagnostics."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubit_entropy.model import CircuitParams, NormalModes, FrequencyMethod, normal_modes
from qubit_entropy.state import (
    GROUND_STATE_T,
    Basis,
    DensityMatrix,
    DimensionMismatch,
    NonPositiveTemperature,
    NotAProductDimension,
    canonical_densities,
    density_from_array,
    partial_trace,
    partial_traces,
    purity,
    rotate_thermal,
    subspace_validity,
    thermal_density,
    thermal_weights,
    transform_density,
    validity_diagnostics,
)
from qubit_entropy.transform import TransformMethod, build_transform

REF = CircuitParams(lam=1.5, g=0.1)
REF_MODES = normal_modes(REF)


def modes_with(omega1, omega2):
    return NormalModes(
        phi=0.0, omega1=omega1, omega2=omega2, method=FrequencyMethod.SMALL_ANGLE
    )


class TestThermalDensity:
    def test_boltzmann_ratio(self):
        # adjacent second-mode levels differ by omega2 in energy
        rho = thermal_density(modes_with(1.0, 1.5), temperature=0.2, d=2)
        ratio = rho.entries[0, 0] / rho.entries[1, 1]
        assert_allclose(ratio, math.exp(1.5 / 0.2), rtol=1e-12)

    def test_degenerate_levels_equally_populated(self):
        rho = thermal_density(modes_with(1.0, 1.0), temperature=0.3, d=2)
        assert_allclose(rho.entries[1, 1], rho.entries[2, 2], rtol=1e-14)

    def test_cold_limit_is_ground_projector(self):
        rho = thermal_density(modes_with(1.0, 1.5), temperature=1e-6, d=2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(rho.entries, expected, atol=1e-12)

    def test_unit_trace_and_diagonal(self):
        rho = thermal_density(REF_MODES, temperature=0.37, d=3)
        assert_allclose(np.trace(rho.entries), 1.0, rtol=1e-14)
        assert np.array_equal(rho.entries, np.diag(np.diag(rho.entries)))
        assert rho.basis is Basis.NORMAL_MODE
        assert rho.temperature == 0.37

    def test_population_ordering(self):
        rho = thermal_density(REF_MODES, temperature=0.25, d=3)
        pops = np.diag(rho.entries)
        assert pops[0] == max(pops)
        assert all(p > 0 for p in pops)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            thermal_density(REF_MODES, temperature=0.0, d=2)
        with pytest.raises(NonPositiveTemperature):
            thermal_density(REF_MODES, temperature=-0.1, d=2)

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            thermal_density(REF_MODES, temperature=0.2, d=1)

    def test_nan_temperature_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            thermal_weights(REF_MODES, [0.1, float("nan")], d=2)

    def test_weight_rows_match_single_states(self):
        temps = [GROUND_STATE_T / 2, 1e-6, 0.05, 0.3, 2.0]
        weights = thermal_weights(REF_MODES, temps, d=3)
        assert weights[0].tolist() == [1.0] + [0.0] * 8
        for row, t in zip(weights, temps):
            assert np.array_equal(row, np.diag(thermal_density(REF_MODES, t, 3).entries))


class TestDensityFromArray:
    def test_symmetrizes_and_normalizes(self):
        raw = np.array([[2.0, 0.1], [0.3, 1.0]])
        rho = density_from_array(raw)
        assert_allclose(rho.entries, rho.entries.T, atol=0)
        assert_allclose(np.trace(rho.entries), 1.0, rtol=1e-14)
        assert_allclose(rho.entries[0, 1], 0.2 / 3.0, rtol=1e-12)

    def test_tiny_negative_eigenvalue_clamped(self):
        eps = 5e-11
        raw = np.diag([1.0, -eps])
        rho = density_from_array(raw)
        evals = np.linalg.eigvalsh(rho.entries)
        assert evals.min() >= 0
        assert_allclose(np.trace(rho.entries), 1.0, rtol=1e-14)

    def test_genuinely_negative_matrix_rejected(self):
        with pytest.raises(ValueError):
            density_from_array(np.diag([1.0, -0.2]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            density_from_array(np.ones((2, 3)))

    def test_stack_matches_single_matrices(self):
        # only the middle slice needs its rounding-level negative clamped
        rng = np.random.default_rng(99)
        a = rng.normal(size=(3, 3))
        stack = np.stack([a @ a.T, np.diag([1.0, 0.5, -5e-11]), np.eye(3)])
        canonical = canonical_densities(stack)
        for raw, got in zip(stack, canonical):
            assert np.array_equal(got, density_from_array(raw).entries)

    def test_stack_error_names_first_offending_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.2]), np.diag([1.0, -0.5])])
        with pytest.raises(ValueError, match=r"min eigenvalue -2\.500e-01"):
            canonical_densities(stack)


class TestTransformDensity:
    def test_identity_transform_keeps_state(self):
        params = CircuitParams(lam=1.5, g=0.0)
        u = build_transform(params, normal_modes(params), d=2)
        rho = thermal_density(normal_modes(params), temperature=0.2, d=2)
        out = transform_density(rho, u)
        assert_allclose(out.entries, rho.entries, atol=1e-14)
        assert out.basis is Basis.PHYSICAL
        assert out.temperature == 0.2

    def test_off_diagonals_appear_but_stay_small(self):
        u = build_transform(REF, REF_MODES, d=2)
        rho = transform_density(thermal_density(REF_MODES, 0.1, 2), u)
        off = rho.entries - np.diag(np.diag(rho.entries))
        assert np.max(np.abs(off)) > 0
        assert np.max(np.abs(off)) < 0.05

    def test_spectrum_preserved_up_to_leakage(self):
        u = build_transform(REF, REF_MODES, d=2)
        rho = thermal_density(REF_MODES, 0.1, 2)
        out = transform_density(rho, u)
        before = np.linalg.eigvalsh(rho.entries)
        after = np.linalg.eigvalsh(out.entries)
        assert np.max(np.abs(before - after)) < 1e-3

    def test_wrong_basis_rejected(self):
        u = build_transform(REF, REF_MODES, d=2)
        rho = transform_density(thermal_density(REF_MODES, 0.1, 2), u)
        with pytest.raises(ValueError):
            transform_density(rho, u)

    def test_dimension_mismatch_rejected(self):
        u = build_transform(REF, REF_MODES, d=3, method=TransformMethod.QUADRATURE)
        rho = thermal_density(REF_MODES, 0.1, 2)
        with pytest.raises(DimensionMismatch):
            transform_density(rho, u)

    def test_stack_matches_dense_basis_change(self):
        # U^T diag(w) U written out densely, one temperature at a time
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        temps = np.linspace(0.02, 0.6, 12)
        weights = thermal_weights(REF_MODES, temps, d=6)
        stacked = rotate_thermal(weights, u)
        for w, got in zip(weights, stacked):
            dense = u.entries.T @ np.diag(w) @ u.entries
            assert np.array_equal(got, density_from_array(dense).entries)

    def test_non_diagonal_state_rejected(self):
        # the basis change takes populations: coherences would be dropped
        u = build_transform(REF, REF_MODES, d=2)
        entries = np.full((4, 4), 0.01) + np.diag([0.9, 0.02, 0.02, 0.02])
        rho = DensityMatrix(entries, Basis.NORMAL_MODE, 0.1)
        with pytest.raises(ValueError, match="diagonal"):
            transform_density(rho, u)


class TestPartialTrace:
    def test_ground_projector_reduces_to_ground(self):
        rho = density_from_array(np.diag([1.0, 0.0, 0.0, 0.0]))
        for subsystem in (1, 2):
            reduced = partial_trace(rho, subsystem)
            assert_allclose(reduced.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_diagonal_reduction_pattern(self):
        rho = density_from_array(np.diag([0.4, 0.3, 0.2, 0.1]))
        first = partial_trace(rho, 1)
        second = partial_trace(rho, 2)
        assert_allclose(first.entries, np.diag([0.7, 0.3]), atol=1e-14)
        assert_allclose(second.entries, np.diag([0.6, 0.4]), atol=1e-14)

    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            rho_a = (a @ a.T) / np.trace(a @ a.T)
            rho_b = (b @ b.T) / np.trace(b @ b.T)
            joint = density_from_array(np.kron(rho_a, rho_b))
            got_a = partial_trace(joint, 1)
            got_b = partial_trace(joint, 2)
            assert_allclose(got_a.entries, rho_a, atol=1e-12)
            assert_allclose(got_b.entries, rho_b, atol=1e-12)

    def test_partial_traces_have_unit_trace(self):
        u = build_transform(REF, REF_MODES, d=2)
        for t in (0.05, 0.2, 0.5):
            rho = transform_density(thermal_density(REF_MODES, t, 2), u)
            for subsystem in (1, 2):
                reduced = partial_trace(rho, subsystem)
                assert_allclose(np.trace(reduced.entries), 1.0, atol=1e-12)
                evals = np.linalg.eigvalsh(reduced.entries)
                assert evals.min() >= -1e-10

    def test_zero_coupling_marginals_are_single_mode_thermal(self):
        params = CircuitParams(lam=1.5, g=0.0)
        modes = normal_modes(params)
        u = build_transform(params, modes, d=2)
        rho = transform_density(thermal_density(modes, 0.2, 2), u)
        first = partial_trace(rho, 1)
        second = partial_trace(rho, 2)
        z1 = 1.0 + math.exp(-1.0 / 0.2)
        z2 = 1.0 + math.exp(-1.5 / 0.2)
        assert_allclose(
            first.entries, np.diag([1.0, math.exp(-1.0 / 0.2)]) / z1, atol=1e-12
        )
        assert_allclose(
            second.entries, np.diag([1.0, math.exp(-1.5 / 0.2)]) / z2, atol=1e-12
        )

    def test_stack_matches_single_states(self):
        rng = np.random.default_rng(5)
        stack = []
        for _ in range(6):
            a = rng.normal(size=(9, 9))
            stack.append(density_from_array(a @ a.T).entries)
        both = partial_traces(np.stack(stack))
        assert both.shape == (2, 6, 3, 3)
        for k, entries in enumerate(stack):
            rho = DensityMatrix(entries, Basis.PHYSICAL)
            for subsystem in (1, 2):
                single = partial_trace(rho, subsystem).entries
                assert np.array_equal(both[subsystem - 1, k], single)

    def test_bad_subsystem_label(self):
        rho = density_from_array(np.eye(4))
        with pytest.raises(ValueError):
            partial_trace(rho, 3)

    def test_non_square_dimension_rejected(self):
        rho = density_from_array(np.eye(5))
        with pytest.raises(NotAProductDimension):
            partial_trace(rho, 1)


class TestPurity:
    def test_pure_state(self):
        assert purity(density_from_array(np.diag([1.0, 0.0, 0.0, 0.0]))) == 1.0

    def test_maximally_mixed(self):
        assert_allclose(purity(density_from_array(np.eye(4))), 0.25, rtol=1e-14)

    def test_bounded_by_one_with_equality_iff_pure(self):
        rng = np.random.default_rng(777)
        for _ in range(25):
            a = rng.normal(size=(4, 4))
            rho = density_from_array(a @ a.T)
            mu = purity(rho)
            top = np.linalg.eigvalsh(rho.entries).max()
            assert mu <= 1.0 + 1e-12
            if mu > 1.0 - 1e-10:
                assert top > 1.0 - 1e-10

    def test_reference_state_nearly_pure(self):
        # frozen: 0.99990716 at T=0.1
        u = build_transform(REF, REF_MODES, d=2)
        rho = transform_density(thermal_density(REF_MODES, 0.1, 2), u)
        assert_allclose(purity(rho), 0.99990716, atol=1e-6)


class TestSubspaceValidity:
    def test_cold_limit(self):
        diag = subspace_validity(REF_MODES, REF, temperature=0.01)
        assert diag.mu_block >= 0.999
        assert diag.mu_complement < 1e-6

    def test_boundary_temperature(self):
        diag = subspace_validity(REF_MODES, REF, temperature=0.2)
        assert diag.mu_block > 0.95

    def test_warm_state_leaves_block(self):
        # frozen: 0.7202377 at T=0.5
        diag = subspace_validity(REF_MODES, REF, temperature=0.5)
        assert_allclose(diag.mu_block, 0.7202377, atol=1e-6)
        assert diag.mu_complement > 1e-5

    def test_monotone_in_temperature(self):
        u_big = build_transform(
            REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE
        )
        grid = np.linspace(0.01, 1.0, 12)
        values = [
            subspace_validity(REF_MODES, REF, float(t), transform=u_big).mu_block
            for t in grid
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_stack_sums_match_single_state_formula(self):
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        states = rotate_thermal(
            thermal_weights(REF_MODES, np.linspace(0.02, 0.6, 12), d=6), u
        )
        kept = [0, 1, 6, 7]
        rest = [i for i in range(36) if i not in kept]
        got = validity_diagnostics(states, d_small=2)
        for k, state in enumerate(states):
            block = state[np.ix_(kept, kept)]
            block = block / float(np.trace(block))
            complement = state[np.ix_(rest, rest)]
            assert got[0][k] == np.sum(block * block)
            assert got[1][k] == np.sum(complement * complement)
            assert got[2][k] == np.sum(np.abs(block)) - np.sum(np.abs(np.diag(block)))

    def test_prebuilt_transform_must_match_truncation(self):
        u_small = build_transform(REF, REF_MODES, d=2)
        with pytest.raises(DimensionMismatch):
            subspace_validity(REF_MODES, REF, 0.2, d_big=6, transform=u_small)

    def test_truncations_must_nest(self):
        with pytest.raises(ValueError):
            subspace_validity(REF_MODES, REF, 0.2, d_small=6, d_big=6)
