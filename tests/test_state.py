"""Thermal weights, spectra and validity diagnostics, and the formed-state
references of tests/oracles.py."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dense_states, dense_transform, partial_traces, spectra, unit_trace
import qubit_entropy
from qubit_entropy.entropy import spectrum_entropies
from qubit_entropy.model import NormalModes, FrequencyMethod, normal_modes
from qubit_entropy.state import (
    _singular_values_2x2,
    thermal_spectra,
    thermal_weights,
    validity_diagnostics,
)
from qubit_entropy.transform import build_transform, parity_levels

REF_MODES = normal_modes(1.5, 0.1)
U_SMALL = build_transform(REF_MODES, d=2)
U_BIG = build_transform(REF_MODES, d=6)


def modes_with(omega1, omega2):
    return NormalModes(
        lam=1.5, g=0.0, phi=0.0, omega1=omega1, omega2=omega2,
        method=FrequencyMethod.SMALL_ANGLE,
    )


def pipeline_state(temperature):
    return dense_states(thermal_weights(REF_MODES, [temperature], 2), U_SMALL)[0]


def diagnostics_at(temperature, d_small=2):
    weights = thermal_weights(REF_MODES, [temperature], 6)
    return tuple(float(x[0]) for x in validity_diagnostics(weights, U_BIG, d_small))


def parity_orthogonal(a):
    """The parity blocks of a random orthogonal (9, 9) matrix that, like U,
    couples only levels of like parity of n + m (d = 3, level n*3 + m): the
    Q factors of the 5 x 5 even and 4 x 4 odd blocks of the square normal
    matrix ``a``."""
    return tuple(np.linalg.qr(a[np.ix_(levels, levels)])[0] for levels in parity_levels(3))


def flipped(blocks):
    """The parity blocks of U^T: each block transposed."""
    return tuple(block.T for block in blocks)


class TestThermalDensity:
    def test_boltzmann_ratio(self):
        # adjacent second-mode levels differ by omega2 in energy
        w = thermal_weights(modes_with(1.0, 1.5), [0.2], d=2)[0]
        assert_allclose(w[0] / w[1], math.exp(1.5 / 0.2), rtol=1e-12)

    def test_degenerate_levels_equally_populated(self):
        w = thermal_weights(modes_with(1.0, 1.0), [0.3], d=2)[0]
        assert_allclose(w[1], w[2], rtol=1e-14)

    def test_cold_limit_is_ground_projector(self):
        w = thermal_weights(modes_with(1.0, 1.5), [1e-6], d=2)[0]
        assert_allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_slow_mode_stays_populated_when_cold(self):
        # omega1 = 1.49e-8 here, so at T = 5e-9 the first excited level of
        # mode 1 keeps about 5 % of the weight: a cold row is a ground
        # projector only where every gap is many times T
        modes = normal_modes(1.0, 1 - 2**-53, FrequencyMethod.EXACT)
        gaps = np.array([0.0, modes.omega2, modes.omega1, modes.omega1 + modes.omega2])
        boltzmann = np.exp(-gaps / 5e-9)
        w = thermal_weights(modes, [5e-9], d=2)[0]
        assert_allclose(w, boltzmann / boltzmann.sum(), rtol=1e-14, atol=0)
        assert w[2] > 0.048

    def test_unit_trace_and_diagonal(self):
        weights = thermal_weights(REF_MODES, [0.37], d=3)
        assert weights.shape == (1, 9)
        assert_allclose(weights.sum(), 1.0, rtol=1e-14)

    def test_population_ordering(self):
        pops = thermal_weights(REF_MODES, [0.25], d=3)[0]
        assert pops[0] == max(pops)
        assert all(p > 0 for p in pops)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            thermal_weights(REF_MODES, [0.0], d=2)
        with pytest.raises(ValueError, match="temperature must be positive"):
            thermal_weights(REF_MODES, [-0.1], d=2)

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            thermal_weights(REF_MODES, [0.2], d=1)

    def test_level_count_must_be_an_integer(self):
        for d in (2.5, 2.0):
            with pytest.raises(ValueError, match="integer"):
                thermal_weights(REF_MODES, [0.2], d)
        assert np.array_equal(
            thermal_weights(REF_MODES, [0.2], np.int64(3)), thermal_weights(REF_MODES, [0.2], 3)
        )

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            thermal_weights(REF_MODES, [0.1, float("nan")], d=2)

    def test_weight_rows_match_single_states(self):
        # at T = 1e-320, gap / T overflows to inf: the weight is exactly 0
        temps = [5e-9, 1e-320, 1e-6, 0.05, 0.3, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = thermal_weights(REF_MODES, temps, d=3)
        assert weights[0].tolist() == weights[1].tolist() == [1.0] + [0.0] * 8
        for row, t in zip(weights, temps):
            assert np.array_equal(row, thermal_weights(REF_MODES, [t], 3)[0])


class TestDensityFromArray:
    # The pipeline forms no density matrix.  What canonicalizing one gave,
    # a unit trace, no negative eigenvalue and loud rejection of bad input,
    # thermal_spectra gives from the weights and U.
    def test_symmetrizes_and_normalizes(self):
        # B^T B is symmetric by construction; weights that do not sum to
        # one give the spectra of the unit-trace state, each entry to the
        # relative accuracy of the SVD
        u = build_transform(REF_MODES, d=3)
        weights = thermal_weights(REF_MODES, [0.1, 0.4], 3)
        for got, want in zip(thermal_spectra(3.0 * weights, u), thermal_spectra(weights, u)):
            assert_allclose(got, want, rtol=1e-12, atol=0)
            assert_allclose(got.sum(axis=-1), 1.0, rtol=1e-14)

    def test_tiny_negative_eigenvalue_clamped(self):
        # eigvalsh of the formed states leaves rounding negatives; squared
        # singular values cannot be negative
        u = build_transform(REF_MODES, d=4)
        weights = thermal_weights(REF_MODES, [5e-9, 0.01, 0.05], 4)
        assert np.linalg.eigvalsh(dense_states(weights, u)).min() < 0
        joint, marginals = thermal_spectra(weights, u)
        assert joint.min() >= 0.0
        assert marginals.min() >= 0.0
        assert_allclose(joint.sum(axis=1), 1.0, rtol=1e-14)

    def test_genuinely_negative_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            thermal_spectra(np.array([[1.0, -0.2, 0.0, 0.0]]), U_SMALL)

    def test_nonsquare_rejected(self):
        # one weight row, not a stack of them
        with pytest.raises(ValueError, match="do not match"):
            thermal_spectra(np.full(4, 0.25), U_SMALL)

    def test_stack_matches_single_matrices(self):
        # arbitrary weights, zeros included, under a random orthogonal U
        # that conserves parity
        rng = np.random.default_rng(99)
        q = parity_orthogonal(rng.normal(size=(9, 9)))
        weights = rng.uniform(0.0, 1.0, size=(3, 9))
        weights[1, [0, 4, 8]] = 0.0
        joint, marginals = thermal_spectra(weights, q)
        for k in range(3):
            one_joint, one_marginals = thermal_spectra(weights[k:k + 1], q)
            assert np.array_equal(joint[k], one_joint[0])
            assert np.array_equal(marginals[:, k], one_marginals[:, 0])

    def test_stack_error_names_first_offending_matrix(self):
        weights = np.array([[1.0, 0.0, 0.0, 0.0], [0.8, -0.2, 0.4, 0.0], [1.5, -0.5, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"non-negative, got -0\.2$"):
            thermal_spectra(weights, U_SMALL)


class TestTransformDensity:
    # the reference state U^T diag(w) U / tr, formed
    def test_identity_transform_keeps_state(self):
        modes = normal_modes(1.5, 0.0)
        u = build_transform(modes, d=2)
        weights = thermal_weights(modes, [0.2], 2)
        assert_allclose(dense_states(weights, u)[0], np.diag(weights[0]), atol=1e-14)

    def test_off_diagonals_appear_but_stay_small(self):
        rho = pipeline_state(0.1)
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) > 0
        assert np.max(np.abs(off)) < 0.05

    def test_spectrum_preserved_up_to_leakage(self):
        before = np.sort(thermal_weights(REF_MODES, [0.1], 2)[0])
        after = np.linalg.eigvalsh(pipeline_state(0.1))
        assert np.max(np.abs(before - after)) < 1e-3

    def test_dimension_mismatch_rejected(self):
        u = build_transform(REF_MODES, d=3)
        with pytest.raises(ValueError, match="do not match"):
            thermal_spectra(thermal_weights(REF_MODES, [0.1], 2), u)

    def test_stack_matches_dense_basis_change(self):
        # U^T diag(w) U / tr written out densely, one temperature at a time
        temps = np.linspace(0.02, 0.6, 12)
        weights = thermal_weights(REF_MODES, temps, d=6)
        stacked = dense_states(weights, U_BIG)
        u = dense_transform(U_BIG)
        for w, got in zip(weights, stacked):
            dense = u.T @ np.diag(w) @ u
            assert_allclose(got, dense / np.trace(dense), rtol=1e-13, atol=1e-16)
            assert_allclose(np.trace(got), 1.0, rtol=1e-14)


class TestThermalSpectra:
    TEMPS = [0.05, 0.1, 0.3, 1.0, 3.0]

    # d = 4 is the circuit-scan shape, both marginal blocks two levels wide
    @pytest.mark.parametrize(
        "u",
        [U_SMALL, build_transform(REF_MODES, d=3), build_transform(REF_MODES, d=4),
         build_transform(REF_MODES, d=5), U_BIG, build_transform(REF_MODES, d=7)],
        ids=["d2", "d3", "d4", "d5", "d6", "d7"],
    )
    def test_match_eigenvalues_of_formed_states(self, u):
        n = len(u[0]) + len(u[1])
        weights = thermal_weights(REF_MODES, self.TEMPS, math.isqrt(n))
        joint, marginals = thermal_spectra(weights, u)
        states = dense_states(weights, u)
        # both routes err by about n eps in absolute terms, n = d^2
        allow = 4 * n * np.finfo(float).eps
        assert_allclose(joint, np.linalg.eigvalsh(states), rtol=0, atol=allow)
        assert_allclose(marginals, spectra(partial_traces(states)), rtol=0, atol=allow)
        assert_allclose(joint.sum(axis=1), 1.0, rtol=1e-14)
        assert_allclose(marginals.sum(axis=2), 1.0, rtol=1e-14)

    def test_identity_transform_keeps_tiny_weights(self):
        # at g = 0 the spectra are the Boltzmann weights themselves, down to
        # 1e-33 here, each to rounding; an eigendecomposition would leave
        # them at about 1e-17 of noise
        modes = normal_modes(1.5, 0.0)
        weights = thermal_weights(modes, [0.02, 0.2], 2)
        u = build_transform(modes, d=2)
        joint, (first, second) = thermal_spectra(weights, u)
        assert_allclose(joint, np.sort(weights, axis=1), rtol=1e-15, atol=0)
        for omega, marginal in ((1.0, first), (1.5, second)):
            excited = np.exp(-omega / np.array([0.02, 0.2]))
            assert_allclose(marginal[:, 0], excited / (1.0 + excited), rtol=1e-14, atol=0)

    def test_scrambled_weights_keep_relative_accuracy(self):
        # an orthogonal U leaves the weights as the spectrum; weights over
        # 40 decades in no particular order must come back to relative
        # accuracy, which the SVD gives only with rows sorted by weight
        rng = np.random.default_rng(31)
        q = parity_orthogonal(rng.normal(size=(9, 9)))
        weights = 10.0 ** rng.uniform(-40, 0, size=(20, 9))
        joint, _ = thermal_spectra(weights, q)
        expected = np.sort(weights, axis=1) / weights.sum(axis=1, keepdims=True)
        assert_allclose(joint, expected, rtol=1e-12, atol=0)

    # at d = 5 the parity blocks are unequal: 13 and 12 levels, and the
    # marginal blocks 3 and 2 levels wide; at d = 7, 25 and 24 levels, and
    # 4 and 3; d = 4 is the circuit-scan shape
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7], ids=["d2", "d3", "d4", "d5", "d7"])
    def test_stack_matches_single_states(self, d):
        temps = np.concatenate([[5e-9], np.linspace(0.02, 0.6, 12)])
        u = build_transform(REF_MODES, d=d)
        joint, marginals = thermal_spectra(thermal_weights(REF_MODES, temps, d), u)
        for k, t in enumerate(temps):
            one = thermal_weights(REF_MODES, [t], d)
            one_joint, one_marginals = thermal_spectra(one, u)
            assert np.array_equal(joint[k], one_joint[0])
            assert np.array_equal(marginals[:, k], one_marginals[:, 0])

    def test_one_level_marginal_blocks_match_formed_partial_traces(self):
        # at d = 2 each marginal is diagonal, its blocks one level wide, and
        # its spectrum two column sums of squares with no SVD: they meet the
        # eigenvalues of the formed partial traces within 4 d^2 eps, on 24
        # seeded circuits, T from 1e-9 to 3, in both orientations
        temps = np.geomspace(1e-9, 3.0, 30)
        allow = 4 * 2**2 * np.finfo(float).eps
        for seed in range(24):
            rng = np.random.default_rng(300 + seed)
            lam = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)]))
            phi = float(rng.uniform(-0.25, 0.25))
            modes = normal_modes(lam, phi * (lam**2 - 1) / lam)
            u = build_transform(modes, 2)
            weights = thermal_weights(modes, temps, 2)
            for oriented in (u, flipped(u)):
                _, marginals = thermal_spectra(weights, oriented)
                formed = partial_traces(dense_states(weights, oriented))
                assert_allclose(marginals, spectra(formed), rtol=0, atol=allow)

    def test_blocks_not_a_parity_pair_rejected(self):
        # U enters as its two parity blocks, square, of the two parity
        # counts of one d: a wrong block count, a non-square block, and
        # sizes that are not the counts of any d are not a tensor of
        # build_transform
        weights = thermal_weights(REF_MODES, [0.1, 0.2], 2)
        even, odd = U_SMALL
        for blocks in [(even,), (even, odd, odd), (even, odd[:, :1]), (even, odd[:1])]:
            with pytest.raises(ValueError, match="not the two parity blocks"):
                thermal_spectra(weights, blocks)
        # (4, 0) and (8, 1) sum to d^2 but do not split by parity; (3, 2)
        # and (2, 3) sum to no d^2
        for sizes in [(4, 0), (3, 2), (2, 3), (8, 1)]:
            with pytest.raises(ValueError, match="not the two parity blocks"):
                thermal_spectra(weights, tuple(np.eye(size) for size in sizes))

    def test_spectra_have_unit_trace(self):
        # 24 seeded small-angle circuits, d = 2 to 4, T from 1e-9 to 3, in
        # the sweep's orientation and the flipped one: every joint and
        # marginal spectrum sums to 1 (at most 1.0e-15 off here)
        temps = np.geomspace(1e-9, 3.0, 30)
        for seed in range(24):
            rng = np.random.default_rng(200 + seed)
            lam = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)]))
            phi = float(rng.uniform(-0.25, 0.25))
            modes = normal_modes(lam, phi * (lam**2 - 1) / lam)
            d = 2 + seed % 3
            u = build_transform(modes, d)
            weights = thermal_weights(modes, temps, d)
            for oriented in (u, flipped(u)):
                joint, marginals = thermal_spectra(weights, oriented)
                assert np.all(np.abs(joint.sum(axis=-1) - 1.0) <= 1e-13)
                assert np.all(np.abs(marginals.sum(axis=-1) - 1.0) <= 1e-13)

    def test_ground_state_marginals_share_a_spectrum(self):
        # a pure state's two marginals have the same Schmidt spectrum
        u = build_transform(REF_MODES, d=4)
        joint, (first, second) = thermal_spectra(
            thermal_weights(REF_MODES, [5e-9], 4), u
        )
        assert np.count_nonzero(joint) == 1
        assert_allclose(first, second, rtol=1e-10, atol=0)

    def test_bad_input_rejected(self):
        weights = thermal_weights(REF_MODES, [0.1, 0.2], 2)
        with pytest.raises(ValueError, match="do not match"):
            thermal_spectra(weights, U_BIG)
        # 5 levels cannot be two modes of equal truncation
        with pytest.raises(ValueError, match="not the two parity blocks"):
            thermal_spectra(np.full((1, 5), 0.2), (np.eye(3), np.eye(2)))
        weights[1, 2] = -1e-3
        with pytest.raises(ValueError, match="non-negative"):
            thermal_spectra(weights, U_SMALL)

    def test_non_finite_spectra_rejected(self):
        huge = (np.eye(2) * 1e200, np.eye(2) * 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                thermal_spectra(thermal_weights(REF_MODES, [0.3], 2), huge)


class TestSingularValues2x2:
    """The closed form that gives every 2 x 2 parity block its singular
    values, against ``np.linalg.svd`` and a 60-digit evaluation."""

    SUBNORMAL = 5e-324

    @staticmethod
    def closed_form(x):
        # every case runs with warnings as errors: no lane may divide by
        # zero, overflow or take an invalid operation where numpy can see it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _singular_values_2x2(np.asarray(x, dtype=float))
        assert np.all(values[..., 0] >= values[..., 1])
        return values

    @staticmethod
    def exact(x):
        """``(larger, smaller)`` of each matrix at 60 digits, the smaller as
        ``|det| / larger`` so that it keeps its own relative accuracy."""
        values = []
        with mpmath.workdps(60):
            for a, b, c, d in np.reshape(x, (-1, 4)).tolist():
                a, b, c, d = map(mpmath.mpf, (a, b, c, d))
                det, frob = abs(a * d - b * c), a * a + b * b + c * c + d * d
                large = mpmath.sqrt((frob + mpmath.sqrt(frob * frob - 4 * det * det)) / 2)
                values.append((float(large), float(det / large) if large else 0.0))
        return np.reshape(values, np.shape(x)[:-1])

    def test_graded_rows_keep_the_smaller_value(self):
        # the second row scaled by 1e-150 to 1, as the thermal weights
        # grade B; a Gram matrix would leave the smaller value at about
        # 1e-8 of the larger, then at 0
        rng = np.random.default_rng(41)
        x = rng.normal(size=(300, 2, 2))
        x[:, 1] *= 10.0 ** -rng.uniform(0, 150, size=(300, 1))
        values = self.closed_form(x)
        assert_allclose(values, self.exact(x), rtol=1e-13, atol=0)
        assert_allclose(values, np.linalg.svd(x, compute_uv=False), rtol=1e-12, atol=0)

    def test_mixed_signs(self):
        # some of these are nearly singular: the SVD then errs by about eps
        # of the larger value in the smaller one, the closed form much less
        rng = np.random.default_rng(42)
        x = rng.uniform(0.5, 2.0, size=(200, 2, 2)) * rng.choice([-1.0, 1.0], size=(200, 2, 2))
        values = self.closed_form(x)
        assert_allclose(values, self.exact(x), rtol=1e-13, atol=0)
        allow = 4 * np.finfo(float).eps * values[:, :1]
        assert np.all(np.abs(values - np.linalg.svd(x, compute_uv=False)) <= allow)

    def test_exact_rank_one(self):
        # rows a power of two apart rotate to an exact zero; any other
        # ratio leaves at most rounding of the larger value
        rng = np.random.default_rng(43)
        row = rng.normal(size=(50, 1, 2))
        twice = self.closed_form(np.concatenate([row, row * 2.0**-40], axis=1))
        assert np.all(twice[:, 1] == 0)
        assert_allclose(twice[:, 0], np.hypot(row[:, 0, 0], row[:, 0, 1]), rtol=1e-15)
        scaled = self.closed_form(np.concatenate([row, row * 0.3], axis=1))
        assert np.all(scaled[:, 1] <= 4 * np.finfo(float).eps * scaled[:, 0])

    @pytest.mark.parametrize(
        "x, expected",
        [
            ([[3.0, -4.0], [0.0, 0.0]], [5.0, 0.0]),
            ([[0.0, 0.0], [-3.0, 4.0]], [5.0, 0.0]),
            ([[0.0, 3.0], [0.0, -4.0]], [5.0, 0.0]),
            ([[3.0, 0.0], [-4.0, 0.0]], [5.0, 0.0]),
            ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]),
            # g far above f and h: max(f, h) / g underflows to 0
            ([[1e-320, 1e300], [0.0, 1e-320]], [1e300, 0.0]),
        ],
        ids=["zero-row", "zero-first-row", "zero-column", "zero-second-column",
             "all-zero", "underflowing-ratio"],
    )
    def test_degenerate_blocks(self, x, expected):
        values = self.closed_form([x])[0]
        assert values.tolist() == expected
        assert_allclose(values, np.linalg.svd(np.array(x), compute_uv=False), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("anti", [False, True], ids=["diagonal", "anti-diagonal"])
    def test_uncoupled_blocks(self, anti):
        # g = 0: U is the identity, and a block is diagonal, or
        # anti-diagonal where the weights order its rows against its
        # columns; its values are the entries' magnitudes, to at most
        # 1.33 eps here
        rng = np.random.default_rng(44)
        entries = rng.normal(size=(400, 2)) * 10.0 ** -rng.uniform(0, 150, size=(400, 2))
        x = np.zeros((400, 2, 2))
        x[:, [0, 1], [1, 0] if anti else [0, 1]] = entries
        expected = -np.sort(-np.abs(entries), axis=1)
        assert_allclose(self.closed_form(x), expected, rtol=2 * np.finfo(float).eps, atol=0)

    def test_subnormal_entries(self):
        # near the bottom of the range a value keeps only the subnormal
        # spacing: within 16 of it for all-subnormal blocks, and the larger
        # value still relatively accurate beside a subnormal row
        rng = np.random.default_rng(45)
        tiny = rng.normal(size=(200, 2, 2)) * 1e-310
        assert_allclose(self.closed_form(tiny), self.exact(tiny), rtol=0, atol=16 * self.SUBNORMAL)
        graded = rng.normal(size=(200, 2, 2))
        graded[:, 1] *= 1e-310
        values, exact = self.closed_form(graded), self.exact(graded)
        assert_allclose(values[:, 0], exact[:, 0], rtol=1e-15, atol=0)
        assert_allclose(values[:, 1], exact[:, 1], rtol=0, atol=4 * self.SUBNORMAL)

    def test_thermal_spectra_take_no_svd_call_at_two_levels(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        weights = thermal_weights(REF_MODES, [0.05, 0.3], 2)
        expected = thermal_spectra(weights, U_SMALL)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for got, want in zip(thermal_spectra(weights, U_SMALL), expected):
            assert np.array_equal(got, want)


    @pytest.mark.parametrize("d, calls", [(3, 3), (4, 4), (5, 4), (6, 4), (7, 4), (8, 4)])
    def test_thermal_spectra_take_one_svd_call_per_parity_block_and_plan(
        self, d, calls, monkeypatch
    ):
        # one call per weight-scaled parity block and one per column-parity
        # plan of the marginal factors, at even d as at odd, but a factor one
        # column wide (the marginals' odd columns at d = 3) takes none
        svd, made = np.linalg.svd, []

        def counted_svd(*args, **kwargs):
            made.append(args[0].shape)
            return svd(*args, **kwargs)

        blocks = build_transform(REF_MODES, d=d)
        weights = thermal_weights(REF_MODES, [0.05, 0.3], d)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        thermal_spectra(weights, blocks)
        assert len(made) == calls


class TestPartialTrace:
    def test_ground_projector_reduces_to_ground(self):
        for reduced in partial_traces(unit_trace(np.diag([1.0, 0.0, 0.0, 0.0]))):
            assert_allclose(reduced, np.diag([1.0, 0.0]), atol=1e-14)

    def test_diagonal_reduction_pattern(self):
        first, second = partial_traces(unit_trace(np.diag([0.4, 0.3, 0.2, 0.1])))
        assert_allclose(first, np.diag([0.7, 0.3]), atol=1e-14)
        assert_allclose(second, np.diag([0.6, 0.4]), atol=1e-14)

    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            rho_a = (a @ a.T) / np.trace(a @ a.T)
            rho_b = (b @ b.T) / np.trace(b @ b.T)
            got_a, got_b = partial_traces(unit_trace(np.kron(rho_a, rho_b)))
            assert_allclose(got_a, rho_a, atol=1e-12)
            assert_allclose(got_b, rho_b, atol=1e-12)

    def test_partial_traces_have_unit_trace(self):
        for t in (0.05, 0.2, 0.5):
            for reduced in partial_traces(pipeline_state(t)):
                assert_allclose(np.trace(reduced), 1.0, atol=1e-12)
                assert np.linalg.eigvalsh(reduced).min() >= -1e-10

    def test_zero_coupling_marginals_are_single_mode_thermal(self):
        modes = normal_modes(1.5, 0.0)
        u = build_transform(modes, d=2)
        rho = dense_states(thermal_weights(modes, [0.2], 2), u)[0]
        first, second = partial_traces(rho)
        z1 = 1.0 + math.exp(-1.0 / 0.2)
        z2 = 1.0 + math.exp(-1.5 / 0.2)
        assert_allclose(first, np.diag([1.0, math.exp(-1.0 / 0.2)]) / z1, atol=1e-12)
        assert_allclose(second, np.diag([1.0, math.exp(-1.5 / 0.2)]) / z2, atol=1e-12)

    def test_stack_matches_single_states(self):
        rng = np.random.default_rng(5)
        stack = []
        for _ in range(6):
            a = rng.normal(size=(9, 9))
            stack.append(unit_trace(a @ a.T))
        both = partial_traces(np.stack(stack))
        assert both.shape == (2, 6, 3, 3)
        for k, entries in enumerate(stack):
            assert np.array_equal(both[:, k], partial_traces(entries[None])[:, 0])

    def test_non_square_dimension_rejected(self):
        # 5 levels cannot split into two equal modes: the reshape fails
        with pytest.raises(ValueError):
            partial_traces(unit_trace(np.eye(5)))


class TestPurity:
    # purity Tr rho^2 = sum p^2 enters the pipeline as 1 - S_2
    def test_pure_state(self):
        p = spectra(unit_trace(np.diag([1.0, 0.0, 0.0, 0.0])))
        assert 1.0 - spectrum_entropies(p, 2.0) == 1.0

    def test_maximally_mixed(self):
        p = spectra(unit_trace(np.eye(4)))
        assert_allclose(1.0 - spectrum_entropies(p, 2.0), 0.25, rtol=1e-14)

    def test_bounded_by_one_with_equality_iff_pure(self):
        rng = np.random.default_rng(777)
        for _ in range(25):
            a = rng.normal(size=(4, 4))
            p = spectra(unit_trace(a @ a.T))
            mu = 1.0 - spectrum_entropies(p, 2.0)
            assert mu <= 1.0 + 1e-12
            if mu > 1.0 - 1e-10:
                assert p.max() > 1.0 - 1e-10

    def test_reference_state_nearly_pure(self):
        # frozen: 0.99990716 at T=0.1
        mu = 1.0 - spectrum_entropies(spectra(pipeline_state(0.1)), 2.0)
        assert_allclose(mu, 0.99990716, atol=1e-6)


class TestSubspaceValidity:
    def test_cold_limit(self):
        mu_block, mu_complement, _ = diagnostics_at(0.01)
        assert mu_block >= 0.999
        assert mu_complement < 1e-6

    def test_boundary_temperature(self):
        assert diagnostics_at(0.2)[0] > 0.95

    def test_warm_state_leaves_block(self):
        # frozen: 0.7202377 at T=0.5
        mu_block, mu_complement, _ = diagnostics_at(0.5)
        assert_allclose(mu_block, 0.7202377, atol=1e-6)
        assert mu_complement > 1e-5

    def test_monotone_in_temperature(self):
        values = [diagnostics_at(float(t))[0] for t in np.linspace(0.01, 1.0, 12)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_prebuilt_transform_must_match_truncation(self):
        u_small = build_transform(REF_MODES, d=2)
        with pytest.raises(ValueError, match="do not match"):
            validity_diagnostics(thermal_weights(REF_MODES, [0.2], 6), u_small, 2)

    def test_truncations_must_nest(self):
        with pytest.raises(ValueError):
            diagnostics_at(0.2, d_small=6)


def dense_diagnostics(states, d_small):
    """The dense reference route: the block and complement sums of each
    formed unit-trace d_big^2 state ``U^T diag(w) U / tr`` (see
    ``dense_states``).  Returns (mu_block, mu_complement, offdiag_sum,
    block trace)."""
    d_big = math.isqrt(states.shape[-1])
    kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
    rest = [i for i in range(d_big * d_big) if i not in kept]
    out = []
    for state in states:
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

    @pytest.mark.parametrize("d_big", [6, 8, 20, 32])
    @pytest.mark.parametrize("lam", [0.6, 1.5, 2.5])
    @pytest.mark.parametrize("g", [0.0, 0.3, -0.3])
    def test_matches_dense_state(self, d_big, lam, g):
        # Rounding allowance.  Each entry of the dense state sums
        # n = d_big^2 products bounded by |U|^T diag(w) |U|, whose Frobenius
        # norm is at most its trace (about 1): the entry errors E of one
        # route have ||E||_F <= n eps (constant taken as 1).  The closed form
        # errs by no more: each G_ij is off by order n eps and, by
        # Cauchy-Schwarz, sum w_i w_j |G_ij| <= sqrt(mu_II) tr.  Per route,
        #   |d mu_II| <= 2 sqrt(mu_II) ||E|| + ||E||^2,
        # and the block B, divided by its trace t_K, moves by
        # ||dB||_F <= 2 ||E|| / t_K, so |d mu_I| <= 2 ||B|| ||dB|| with
        # ||B|| <= 1, and |d offdiag_sum| <= d_small^2 ||dB||_F over the
        # d_small^4 entries.  The two routes' errors add.  An odd d_small
        # keeps unequal numbers of even and odd levels.
        modes = normal_modes(lam, g, FrequencyMethod.EXACT)
        u = build_transform(modes, d=d_big)
        weights = thermal_weights(modes, self.ORACLE_TEMPS, d_big)
        states = dense_states(weights, u)
        n_eps = d_big**2 * np.finfo(float).eps
        for d_small in (2, 3, 5):
            mu_block, mu_complement, offdiag = validity_diagnostics(weights, u, d_small)
            ref_block, ref_complement, ref_offdiag, block_trace = dense_diagnostics(
                states, d_small
            )
            block_move = 2 * (2 * n_eps / block_trace)
            allow_complement = 2 * (2 * np.sqrt(ref_complement) * n_eps + n_eps**2)
            assert np.all(np.abs(mu_block - ref_block) <= 2 * block_move)
            assert np.all(np.abs(mu_complement - ref_complement) <= allow_complement)
            assert np.all(np.abs(offdiag - ref_offdiag) <= d_small**2 * block_move)

    @pytest.mark.parametrize("d_small, d_big", [(2, 6), (3, 8), (2, 20)])
    def test_ground_state_is_rank_one_projector(self, d_small, d_big):
        # every excited weight underflows: the state is U_0^T U_0 / |U_0|^2 (row 0 of U)
        modes = normal_modes(1.5, 0.3, FrequencyMethod.EXACT)
        u = build_transform(modes, d=d_big)
        weights = thermal_weights(modes, [1e-9], d_big)
        mu_block, mu_complement, _ = validity_diagnostics(weights, u, d_small)
        row = dense_transform(u)[0] ** 2
        kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
        outside = math.fsum(np.delete(row, kept))
        assert_allclose(mu_block, 1.0, rtol=1e-13)
        assert_allclose(mu_complement, (outside / math.fsum(row)) ** 2, rtol=1e-13)
        assert mu_complement > 0

    def test_stack_matches_single_states(self):
        temps = np.concatenate([[5e-9], np.linspace(0.02, 0.6, 12)])
        stacked = validity_diagnostics(thermal_weights(REF_MODES, temps, 6), U_BIG, 2)
        for k, t in enumerate(temps):
            assert diagnostics_at(float(t)) == tuple(column[k] for column in stacked)

    @pytest.mark.parametrize("d_small, d_big", [(3, 8), (4, 8), (5, 7)])
    def test_stack_matches_single_states_at_larger_d_small(self, d_small, d_big):
        # kept blocks of several rows and columns per parity: every
        # reduction sums a state's row of the stack as it sums that state alone
        u = build_transform(REF_MODES, d=d_big)
        temps = np.concatenate([[5e-9], np.linspace(0.02, 0.6, 12)])
        stacked = validity_diagnostics(thermal_weights(REF_MODES, temps, d_big), u, d_small)
        for k, t in enumerate(temps):
            alone = validity_diagnostics(thermal_weights(REF_MODES, [t], d_big), u, d_small)
            assert tuple(column[k] for column in stacked) == tuple(x[0] for x in alone)

    @pytest.mark.parametrize(
        "bad, message",
        [(-1e-3, "non-negative"), (float("nan"), "non-negative"),
         (float("inf"), "non-negative")],
    )
    def test_bad_weight_rejected(self, bad, message):
        u = build_transform(REF_MODES, d=6)
        weights = thermal_weights(REF_MODES, [0.1, 0.2], 6)
        weights[1, 3] = bad
        with pytest.raises(ValueError, match=message):
            validity_diagnostics(weights, u, 2)

    def test_offdiag_sum_does_not_cancel(self):
        # a coupling of 1e-13 between kept levels 1 and 6, (0, 1) and (1, 0),
        # both of odd parity: the off-diagonal entries are summed directly,
        # not as sum|B| - sum|diag B|, which would lose them against the
        # unit diagonal
        odd = list(parity_levels(6)[1])
        u = (np.eye(18), np.eye(18))
        u[1][odd.index(1), odd.index(6)] = u[1][odd.index(6), odd.index(1)] = 1e-13
        w = thermal_weights(REF_MODES, [0.3], 6)
        kept = w[0, [0, 1, 6, 7]].sum() + 1e-26 * w[0, [1, 6]].sum()
        expected = 2e-13 * w[0, [1, 6]].sum() / kept
        assert_allclose(validity_diagnostics(w, u, 2)[2], [expected], rtol=1e-12)

    def test_blocks_not_a_parity_pair_rejected(self):
        # U enters as its two parity blocks, square, of the two parity
        # counts of one d; anything else is not a tensor of build_transform
        weights = thermal_weights(REF_MODES, [0.1, 0.2], 6)
        even, odd = U_BIG
        for blocks in [(even,), (even, odd, odd), (even, odd[:, :17]), (odd, odd[:17])]:
            with pytest.raises(ValueError, match="not the two parity blocks"):
                validity_diagnostics(weights, blocks, 2)
        for sizes in [(36, 0), (19, 17), (17, 19)]:
            with pytest.raises(ValueError, match="not the two parity blocks"):
                validity_diagnostics(weights, tuple(np.eye(size) for size in sizes), 2)

    def test_peak_memory_within_chunk_budget(self):
        # the block is formed per state as (U_K^T w) @ U_K, k d_small^2 d_big^2
        # values: 0.5 MB here, where a (d_big^2, d_small^4) table of the kept
        # column pairs would take 66 MB
        modes = normal_modes(1.5, 0.1)
        u = build_transform(modes, d=20)
        weights = thermal_weights(modes, [0.3], 20)
        tracemalloc.start()
        try:
            validity_diagnostics(weights, u, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_zero_trace_rejected(self):
        u = build_transform(REF_MODES, d=6)
        with pytest.raises(ValueError, match="trace must be positive"):
            validity_diagnostics(np.zeros((1, 36)), u, 2)

    def test_shape_and_truncation_checked(self):
        u = build_transform(REF_MODES, d=6)
        with pytest.raises(ValueError, match="do not match"):
            validity_diagnostics(thermal_weights(REF_MODES, [0.1], 5), u, 2)
        with pytest.raises(ValueError):
            validity_diagnostics(thermal_weights(REF_MODES, [0.1], 6), u, 6)

    def test_float_truncation_leaves_the_caches_as_a_fresh_process_has_them(self):
        # 2.0 == 2 as a cache key: a float d_small is rejected before any
        # cache is read, so it leaves nothing that a later call with 2 reads
        def fresh_process(*lines):
            src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_entropy.__file__)))
            script = "\n".join([
                f"import sys; sys.path.insert(0, {src!r})",
                "from qubit_entropy import (",
                "    build_transform, normal_modes, thermal_weights, validity_diagnostics)",
                "modes = normal_modes(1.5, 0.1)",
                "w, u = thermal_weights(modes, [0.1, 0.3], 6), build_transform(modes, 6)",
                *lines,
                "print([column.tolist() for column in validity_diagnostics(w, u, 2)])",
            ])
            return subprocess.run(
                [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
            ).stdout

        rejected = [
            "try: validity_diagnostics(w, u, 2.0)",
            "except ValueError as exc: print(exc)",
        ]
        expected = "d_small must be an integer, got 2.0\n" + fresh_process()
        assert fresh_process(*rejected) == expected
        weights = thermal_weights(REF_MODES, [0.1], 6)
        for d_small in (2.5, np.float64(3)):
            with pytest.raises(ValueError, match="integer"):
                validity_diagnostics(weights, U_BIG, d_small)
        for got, want in zip(
            validity_diagnostics(weights, U_BIG, np.int64(3)),
            validity_diagnostics(weights, U_BIG, 3),
        ):
            assert np.array_equal(got, want)


class TestMemoryLayout:
    # weights cut from a wider table need not be C-ordered; each row must
    # round as the same row of a C-ordered copy
    TEMPS = np.concatenate([[5e-9], np.linspace(0.02, 0.6, 12)])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_thermal_spectra_ignore_layout(self, d):
        u = build_transform(REF_MODES, d=d)
        weights = thermal_weights(REF_MODES, self.TEMPS, d)
        for c_ordered, f_ordered in zip(
            thermal_spectra(weights, u),
            thermal_spectra(np.asfortranarray(weights), u),
        ):
            assert np.array_equal(c_ordered, f_ordered)

    @pytest.mark.parametrize("d_big", [6, 8])
    def test_validity_diagnostics_ignore_layout(self, d_big):
        u = build_transform(REF_MODES, d=d_big)
        weights = thermal_weights(REF_MODES, self.TEMPS, d_big)
        for c_ordered, f_ordered in zip(
            validity_diagnostics(weights, u, 2),
            validity_diagnostics(np.asfortranarray(weights), u, 2),
        ):
            assert np.array_equal(c_ordered, f_ordered)

    @pytest.mark.parametrize("d_big", [6, 8])
    def test_validity_diagnostics_ignore_layout_at_three_levels(self, d_big):
        u = build_transform(REF_MODES, d=d_big)
        weights = thermal_weights(REF_MODES, self.TEMPS, d_big)
        for c_ordered, f_ordered in zip(
            validity_diagnostics(weights, u, 3),
            validity_diagnostics(np.asfortranarray(weights), u, 3),
        ):
            assert np.array_equal(c_ordered, f_ordered)
