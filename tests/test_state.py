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

    def test_prebuilt_transform_must_match_truncation(self):
        u_small = build_transform(REF, REF_MODES, d=2)
        with pytest.raises(DimensionMismatch):
            subspace_validity(REF_MODES, REF, 0.2, d_big=6, transform=u_small)

    def test_truncations_must_nest(self):
        with pytest.raises(ValueError):
            subspace_validity(REF_MODES, REF, 0.2, d_small=6, d_big=6)


def dense_diagnostics(u, weights, d_small):
    """The dense reference route: the full unit-trace d_big^2 state
    ``canonical_densities(U^T diag(w) U)``, then its block and complement
    sums.  Returns (mu_block, mu_complement, offdiag_sum, block trace)."""
    d_big = math.isqrt(len(u))
    kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
    rest = [i for i in range(d_big * d_big) if i not in kept]
    out = []
    for w in weights:
        state = canonical_densities((u.T @ np.diag(w) @ u)[None])[0]
        block = state[np.ix_(kept, kept)]
        block_trace = float(np.trace(block))
        block = block / block_trace
        complement = state[np.ix_(rest, rest)]
        out.append((
            np.sum(block * block),
            np.sum(complement * complement),
            np.sum(np.abs(block)) - np.sum(np.abs(np.diag(block))),
            block_trace,
        ))
    return np.array(out).T


class TestValidityDiagnostics:
    ORACLE_TEMPS = [1e-9, 0.01, 0.03, 0.1, 0.3, 0.7, 1.5, 3.0]

    @pytest.mark.parametrize("d_big", [6, 8, 20])
    @pytest.mark.parametrize("lam", [0.6, 1.5, 2.5])
    @pytest.mark.parametrize("g", [0.0, 0.3, -0.3])
    def test_matches_dense_state(self, d_big, lam, g):
        # Rounding allowance.  Each entry of the dense state sums
        # n = d_big^2 products bounded by |U|^T diag(w) |U|, whose Frobenius
        # norm is at most its trace (about 1), and the eigh behind the clamp
        # has backward error O(n eps ||rho||): the entry errors E of one
        # route have ||E||_F <= n eps (constant taken as 1).  The closed form
        # errs by no more: each G_ij is off by order n eps and, by
        # Cauchy-Schwarz, sum w_i w_j |G_ij| <= sqrt(mu_II) tr.  Per route,
        #   |d mu_II| <= 2 sqrt(mu_II) ||E|| + ||E||^2,
        # and the block B, divided by its trace t_K, moves by
        # ||dB||_F <= 2 ||E|| / t_K, so |d mu_I| <= 2 ||B|| ||dB|| with
        # ||B|| <= 1, and |d offdiag_sum| <= d_small^2 ||dB||_F over the
        # d_small^4 entries.  The two routes' errors add.
        params = CircuitParams(lam=lam, g=g)
        modes = normal_modes(params, FrequencyMethod.EXACT)
        u = build_transform(params, modes, d=d_big, method=TransformMethod.QUADRATURE)
        weights = thermal_weights(modes, self.ORACLE_TEMPS, d_big)
        mu_block, mu_complement, offdiag = validity_diagnostics(weights, u, 2)
        ref_block, ref_complement, ref_offdiag, block_trace = dense_diagnostics(
            u.entries, weights, 2
        )
        n_eps = d_big**2 * np.finfo(float).eps
        block_move = 2 * (2 * n_eps / block_trace)
        allow_complement = 2 * (2 * np.sqrt(ref_complement) * n_eps + n_eps**2)
        assert np.all(np.abs(mu_block - ref_block) <= 2 * block_move)
        assert np.all(np.abs(mu_complement - ref_complement) <= allow_complement)
        assert np.all(np.abs(offdiag - ref_offdiag) <= 2**2 * block_move)

    @pytest.mark.parametrize("d_small, d_big", [(2, 6), (3, 8), (2, 20)])
    def test_ground_state_is_rank_one_projector(self, d_small, d_big):
        # below GROUND_STATE_T the state is U_0^T U_0 / |U_0|^2 (row 0 of U)
        params = CircuitParams(lam=1.5, g=0.3)
        modes = normal_modes(params, FrequencyMethod.EXACT)
        u = build_transform(params, modes, d=d_big, method=TransformMethod.QUADRATURE)
        weights = thermal_weights(modes, [GROUND_STATE_T / 10], d_big)
        mu_block, mu_complement, _ = validity_diagnostics(weights, u, d_small)
        row = u.entries[0] ** 2
        kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
        outside = math.fsum(np.delete(row, kept))
        assert_allclose(mu_block, 1.0, rtol=1e-13)
        assert_allclose(mu_complement, (outside / math.fsum(row)) ** 2, rtol=1e-13)
        assert mu_complement > 0

    def test_stack_matches_single_states(self):
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        temps = np.concatenate([[GROUND_STATE_T / 2], np.linspace(0.02, 0.6, 12)])
        stacked = validity_diagnostics(thermal_weights(REF_MODES, temps, 6), u, 2)
        for k, t in enumerate(temps):
            single = subspace_validity(REF_MODES, REF, float(t), transform=u)
            assert single == tuple(column[k] for column in stacked)

    @pytest.mark.parametrize(
        "bad, message",
        [(-1e-3, "non-negative"), (float("nan"), "non-negative"),
         (float("inf"), "non-negative")],
    )
    def test_bad_weight_rejected(self, bad, message):
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        weights = thermal_weights(REF_MODES, [0.1, 0.2], 6)
        weights[1, 3] = bad
        with pytest.raises(ValueError, match=message):
            validity_diagnostics(weights, u, 2)

    def test_zero_trace_rejected(self):
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        with pytest.raises(ValueError, match="trace must be positive"):
            validity_diagnostics(np.zeros((1, 36)), u, 2)

    def test_shape_and_truncation_checked(self):
        u = build_transform(REF, REF_MODES, d=6, method=TransformMethod.QUADRATURE)
        with pytest.raises(DimensionMismatch):
            validity_diagnostics(thermal_weights(REF_MODES, [0.1], 5), u, 2)
        with pytest.raises(ValueError):
            validity_diagnostics(thermal_weights(REF_MODES, [0.1], 6), u, 6)
