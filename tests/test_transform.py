"""Basis-change tensor against the closed-form and quadrature references."""
from math import sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    closed_form_matrix,
    dense_transform,
    gaussian_form,
    overlap_element_closed,
    overlap_element_quadrature,
    overlap_recurrence,
    rotation,
)
from qubit_entropy.hermite import ho_eigenfunctions
from qubit_entropy.model import FrequencyMethod, normal_modes
from qubit_entropy.transform import (
    build_transform, complement_positions, diagonal_positions, leading_positions,
    marginal_positions, parity_levels,
)

REF_MODES = normal_modes(1.5, 0.1)


def dense_build(modes, d):
    """build_transform's blocks assembled into the dense (d*d, d*d) matrix."""
    return dense_transform(build_transform(modes, d))


def grid_tables(modes, d, order=None, triangular=False):
    """The four eigenfunction tables on the full grid, its rule's weights
    v and ``sqrt(det)``, whose inverse is the Jacobian of the node map.

    Each table is ``(d, N, N)`` over levels and the node pair (k1, k2) of
    the tensor-product rule.  The nodes are mapped through the
    eigen-decomposition of the Gaussian, which build_transform does not
    use, so its grid shares no node with the build's; or, with
    ``triangular``, through the triangular factor of the Gaussian, as
    build_transform maps them, where the bare x2 depends on k2 alone.
    """
    lam, w1, w2 = modes.lam, modes.omega1, modes.omega2
    c, s = rotation(modes)
    a = gaussian_form(modes)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1]
    t, w = np.polynomial.hermite.hermgauss(order or 2 * d - 1)
    v = np.exp(np.log(w) + t * t)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    if triangular:
        x2 = t2 / sqrt(det / a[0, 0])
        x1 = t1 / sqrt(a[0, 0]) - (a[0, 1] / a[0, 0]) * x2
    else:
        mu, rot = np.linalg.eigh(a)
        scale = rot @ np.diag(1.0 / np.sqrt(mu))
        x1 = scale[0, 0] * t1 + scale[0, 1] * t2
        x2 = scale[1, 0] * t1 + scale[1, 1] * t2
    x1p = c * x1 + s * x2
    x2p = c * x2 - s * x1
    tables = (
        ho_eigenfunctions(d, x1, 1.0),
        ho_eigenfunctions(d, x2, 1.0 / sqrt(lam)),
        ho_eigenfunctions(d, x1p, 1.0 / sqrt(w1)),
        ho_eigenfunctions(d, x2p, 1.0 / sqrt(w2)),
    )
    return tables, v, sqrt(det)


def per_entry_tables(modes, d, order=None, triangular=False):
    """Bare and normal-mode eigenfunction products and the weights on the full grid.

    One row per (n, m), filled one eigenfunction product at a time, over
    every node of :func:`grid_tables`; columns run over the flat node
    index k1 * N + k2.
    """
    (f1, f2, f1p, f2p), v, root_det = grid_tables(modes, d, order, triangular)
    weights = (np.outer(v, v) / root_det).ravel()
    bare = np.empty((d * d, v.size * v.size))
    rotated = np.empty((d * d, v.size * v.size))
    for a in range(d):
        for b in range(d):
            bare[a * d + b] = (f1[a] * f2[b]).ravel()
            rotated[a * d + b] = (f1p[a] * f2p[b]).ravel()
    return bare, rotated, weights


def odd_level_sum(d):
    """Mask of the (d*d, d*d) entries whose levels n + m + n' + m' sum to an odd number."""
    level_sum = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return np.add.outer(level_sum, level_sum) % 2 == 1


def per_entry_quadrature_build(modes, d, order=None, triangular=False):
    """The quadrature tensor from :func:`per_entry_tables`, summed over the
    full grid in one matrix product, and its absolute sum
    ``S = sum |W B R|``, which bounds its rounding error."""
    bare, rotated, weights = per_entry_tables(modes, d, order, triangular)
    magnitude = (np.abs(bare) * weights) @ np.abs(rotated).T
    return (bare * weights) @ rotated.T, magnitude


def gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, u the unit roundoff of float64."""
    unit = np.finfo(float).eps / 2
    return k * unit / (1 - k * unit)


def build_rounding_bound(modes, d):
    """``gamma_k * S`` for build_transform at order 2d - 1.

    Its sum of an entry runs over the N = 2d - 1 nodes k1 in one matrix
    product, then over the d folded nodes k2 in a second: k = N + d counts
    the N - 1 and d - 1 additions plus one for each product.  S is the
    absolute sum over the full triangular grid, which the fold's doubled
    weights reproduce.  On that grid the bare mode-2 table depends on k2
    alone, so S factorizes as the build does, into a sum over k1 and then
    one over k2 of absolute tables: O(d^5), every term non-negative.
    """
    (f1, f2, f1p, f2p), v, root_det = grid_tables(modes, d, triangular=True)
    nodes = v.size
    # sum over k1 for each k2: (k2, n n', k1) @ (k2, k1, m')
    pairs = (np.abs(f1) * v[:, None])[:, None] * np.abs(f1p)[None]
    inner = pairs.transpose(3, 0, 1, 2).reshape(nodes, d * d, nodes) @ np.abs(f2p).transpose(2, 1, 0)
    # sum over k2: (m, k2) @ (k2, n n' m'), then order the axes as (n m, n' m')
    outer = (np.abs(f2[:, 0, :]) * (v / root_det)) @ inner.reshape(nodes, -1)
    magnitude = outer.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return gamma((2 * d - 1) + d) * magnitude


def probe_block_deviation(modes, d):
    """Max-norm gap of the lowest 2x2-level block of U^T U from identity."""
    u = dense_build(modes, d)
    gram = u.T @ u
    idx = [n * d + m for n in range(2) for m in range(2)]
    return np.max(np.abs(gram[np.ix_(idx, idx)] - np.eye(4)))


class TestGaussianCoefficients:
    # the Gaussian of tests/oracles.py, derived there from the rotation
    def test_zero_coupling_is_separable(self):
        form = gaussian_form(normal_modes(1.0, 0.0))
        assert form[0, 1] == form[1, 0] == 0.0
        assert np.linalg.det(form) > 0

    def test_positive_definite_at_reference(self):
        form = gaussian_form(REF_MODES)
        assert form[0, 0] > 0
        assert np.linalg.det(form) > 0

    def test_legacy_table_fails_zero_coupling_identity(self):
        # at g=0 the transform must be the identity, which needs
        # 1/(K sqrt(det A)) = 1; the current derivation satisfies it
        modes = normal_modes(1.5, 0.0)
        kappa = (modes.lam * modes.omega1 * modes.omega2) ** -0.25
        good = gaussian_form(modes)
        assert_allclose(1.0 / (kappa * np.sqrt(np.linalg.det(good))), 1.0, rtol=1e-14)

    def test_quadrature_arbitrates_between_tables(self):
        # the ground-state element follows 1/(K sqrt(det A)); the
        # current coefficients reproduce the directly integrated value
        kappa = (REF_MODES.lam * REF_MODES.omega1 * REF_MODES.omega2) ** -0.25
        oracle = overlap_element_quadrature(0, 0, 0, 0, REF_MODES)
        good = gaussian_form(REF_MODES)
        assert_allclose(1.0 / (kappa * np.sqrt(np.linalg.det(good))), oracle, rtol=1e-10)


class TestClosedElements:
    def test_ground_element_formula(self):
        det = np.linalg.det(gaussian_form(REF_MODES))
        kappa = (REF_MODES.lam * REF_MODES.omega1 * REF_MODES.omega2) ** -0.25
        expected = 1.0 / (kappa * np.sqrt(det))
        assert_allclose(
            overlap_element_closed(0, 0, 0, 0, REF_MODES), expected, rtol=1e-13
        )

    def test_both_excited_element_formula(self):
        form = gaussian_form(REF_MODES)
        kappa = (REF_MODES.lam * REF_MODES.omega1 * REF_MODES.omega2) ** -0.25
        expected = -form[0, 1] * np.sqrt(REF_MODES.lam) / (kappa * np.linalg.det(form) ** 1.5)
        assert_allclose(
            overlap_element_closed(1, 1, 0, 0, REF_MODES), expected, rtol=1e-13
        )

    def test_top_corner_element_rejects_legacy_groupings(self):
        # two prefactor groupings from the superseded derivation, both
        # well off the integrated value; the moment expansion matches it
        phi = REF_MODES.phi
        form = gaussian_form(REF_MODES)
        det = np.linalg.det(form)
        kappa = (REF_MODES.lam * REF_MODES.omega1 * REF_MODES.omega2) ** -0.25
        shared = (1 - phi**2) * (1 + 3 * form[0, 1] ** 2 / det)
        grouping_a = shared / (kappa * det) ** 1.5
        grouping_b = shared / (kappa * det**1.5)
        oracle = overlap_element_quadrature(1, 1, 1, 1, REF_MODES)
        closed = overlap_element_closed(1, 1, 1, 1, REF_MODES)
        assert_allclose(closed, oracle, atol=1e-10)
        assert abs(grouping_a - oracle) > 0.1
        assert abs(grouping_b - oracle) > 0.1

    def test_parity_odd_elements_exact_zero(self):
        for n in range(2):
            for m in range(2):
                for n2 in range(2):
                    for m2 in range(2):
                        if (n + m + n2 + m2) % 2 == 1:
                            value = overlap_element_closed(
                                n, m, n2, m2, REF_MODES
                            )
                            assert value == 0.0

    def test_zero_coupling_is_exact_delta(self):
        modes = normal_modes(1.5, 0.0)
        for n in range(2):
            for m in range(2):
                for n2 in range(2):
                    for m2 in range(2):
                        value = overlap_element_closed(n, m, n2, m2, modes)
                        assert value == (1.0 if (n, m) == (n2, m2) else 0.0)


class TestQuadratureElements:
    def test_ground_element_at_zero_coupling(self):
        modes = normal_modes(1.5, 0.0)
        value = overlap_element_quadrature(0, 0, 0, 0, modes)
        assert_allclose(value, 1.0, atol=1e-12)

    def test_orthogonality_at_zero_coupling(self):
        modes = normal_modes(1.5, 0.0)
        value = overlap_element_quadrature(0, 0, 1, 1, modes)
        assert_allclose(value, 0.0, atol=1e-12)

    def test_high_levels_accepted(self):
        value = overlap_element_quadrature(3, 2, 3, 2, REF_MODES)
        assert abs(value) < 1.5

    def test_negative_level_rejected(self):
        # a negative level has no eigenfunction: math.factorial rejects it
        with pytest.raises(ValueError):
            overlap_element_quadrature(-1, 0, 0, 0, REF_MODES)


class TestDualOracle:
    def test_closed_matches_quadrature_on_random_params(self):
        rng = np.random.default_rng(91823)
        for _ in range(50):
            modes = normal_modes(float(rng.uniform(1.2, 2.0)), float(rng.uniform(0.0, 0.1)))
            closed = closed_form_matrix(modes)
            quad = dense_build(modes, 2)
            assert np.max(np.abs(closed - quad)) < 1e-8

    def test_continuity_in_coupling(self):
        base = dense_build(REF_MODES, 2)
        shifted = dense_build(normal_modes(1.5, 0.1 + 1e-6), 2)
        assert np.max(np.abs(base - shifted)) < 1e-4


class TestBuildTransform:
    def test_closed_build_equals_elementwise_values(self):
        # the d = 2 build against the closed forms: the rule is exact, so
        # they differ by rounding only
        built = dense_build(REF_MODES, 2)
        closed = closed_form_matrix(REF_MODES)
        assert_allclose(built, closed, rtol=0, atol=1e-14)

    def test_quadrature_build_equals_elementwise_values(self):
        built = dense_build(REF_MODES, 3)
        for n in range(3):
            for m in range(3):
                for n2 in range(3):
                    for m2 in range(3):
                        element = overlap_element_quadrature(
                            n, m, n2, m2, REF_MODES
                        )
                        assert_allclose(
                            built[n * 3 + m, n2 * 3 + m2], element, atol=1e-13
                        )

    @pytest.mark.parametrize(
        "lam, g, d, method",
        [
            (1.5, 0.1, 4, FrequencyMethod.SMALL_ANGLE),
            (1.5, 0.1, 8, FrequencyMethod.SMALL_ANGLE),
            (1.5, 0.0, 4, FrequencyMethod.SMALL_ANGLE),
            (0.6, -0.05, 4, FrequencyMethod.EXACT),
            (1.5, 0.1, 20, FrequencyMethod.SMALL_ANGLE),
            (1.5, 0.1, 32, FrequencyMethod.SMALL_ANGLE),
            (2.5, 0.9, 20, FrequencyMethod.EXACT),
            (2.5, 0.9, 32, FrequencyMethod.EXACT),
            # odd d: the two parities of n pair with different counts of m
            (1.5, 0.1, 21, FrequencyMethod.SMALL_ANGLE),
            (2.5, 0.9, 31, FrequencyMethod.EXACT),
        ],
    )
    def test_quadrature_build_equals_per_entry_assembly(self, lam, g, d, method):
        # Both rules are exact for the integrand, so each computed sum lies
        # within gamma_k * S of the same integral, S its own absolute sum:
        # the build on the triangular grid, the reference on the eigen-mapped
        # grid, its k the N^2 terms plus one for the second product.
        modes = normal_modes(lam, g, method)
        built = dense_build(modes, d)
        # at g = 0 the bases coincide and the build is the exact identity
        if g == 0:
            np.testing.assert_array_equal(built, np.eye(d * d))
            return
        reference, magnitude = per_entry_quadrature_build(modes, d)
        bound = build_rounding_bound(modes, d)
        bound += gamma((2 * d - 1) ** 2 + 1) * magnitude
        assert np.all(np.abs(built - reference) <= bound)

    @pytest.mark.parametrize("method", list(FrequencyMethod))
    @pytest.mark.parametrize("d", [2, 4, 8, 9, 20, 21])
    def test_grid_mirrors_by_parity(self, d, method):
        # why the fold is exact: on the triangular grid, flat node N^2 - 1 - k
        # is node k negated, the weights are symmetric and each product of
        # levels (n, m) takes the factor (-1)^(n+m) there, all bit for bit
        modes = normal_modes(1.5, 0.1, method)
        bare, rotated, weights = per_entry_tables(modes, d, triangular=True)
        sign = np.where(np.add.outer(np.arange(d), np.arange(d)).ravel() % 2, -1.0, 1.0)
        np.testing.assert_array_equal(weights[::-1], weights)
        np.testing.assert_array_equal(bare[:, ::-1], sign[:, None] * bare)
        np.testing.assert_array_equal(rotated[:, ::-1], sign[:, None] * rotated)

    @pytest.mark.parametrize("method", list(FrequencyMethod))
    @pytest.mark.parametrize("d", [2, 4, 8, 9, 20, 21])
    def test_folded_build_within_rounding_of_full_grid(self, d, method):
        # The folded, factorized build and the full-grid sum on the same
        # triangular grid form their terms in different orders, so each is
        # bounded on its own: within gamma_k * S of the integral, S the
        # absolute sum over the full grid, k the N^2 terms plus one for the
        # full-grid sum.  Entries of odd level sum have an exact sum of zero.
        modes = normal_modes(1.5, 0.1, method)
        built = dense_build(modes, d)
        full, magnitude = per_entry_quadrature_build(modes, d, triangular=True)
        bound = build_rounding_bound(modes, d)
        bound += gamma((2 * d - 1) ** 2 + 1) * magnitude
        assert np.all(np.abs(built - full) <= bound)

    def test_quadrature_order_is_exactness_floor(self):
        # the integrand has per-axis degree up to 4(d - 1), so order 2d - 1
        # is exact and a rule of 64 nodes moves U only by rounding
        for lam, g, d, method in [
            (1.5, 0.1, 2, FrequencyMethod.SMALL_ANGLE),
            (1.5, 0.1, 9, FrequencyMethod.SMALL_ANGLE),
            (0.6, -0.2, 9, FrequencyMethod.EXACT),
            (2.2, 0.25, 9, FrequencyMethod.EXACT),
        ]:
            modes = normal_modes(lam, g, method)
            built = dense_build(modes, d)
            high = per_entry_quadrature_build(modes, d, order=64)[0]
            assert np.max(np.abs(built - high)) <= 1e-14

    def test_zero_coupling_closed_build_is_exact_identity(self):
        assert np.array_equal(closed_form_matrix(normal_modes(1.5, 0.0)), np.eye(4))

    def test_zero_coupling_quadrature_build_near_identity(self):
        built = build_transform(normal_modes(1.5, 0.0), d=2)
        assert np.array_equal(dense_transform(built), np.eye(4))

    def test_metadata_recorded(self):
        # a pair of plain square matrices, one per parity of the level sum:
        # the levels per mode are the square root of their summed sizes
        for d in (2, 3, 8):
            built = build_transform(REF_MODES, d=d)
            assert type(built) is tuple and len(built) == 2
            for block, levels in zip(built, parity_levels(d)):
                assert type(block) is np.ndarray and block.dtype == np.float64
                assert block.shape == (len(levels), len(levels))
            assert sum(len(block) for block in built) == d * d

    def test_parity_levels_split_the_levels(self):
        # each level n*d + m once, ascending within its parity of n + m
        for d in (2, 3, 4, 7):
            even, odd = parity_levels(d)
            assert sorted([*even, *odd]) == list(range(d * d))
            for p, levels in enumerate((even, odd)):
                assert list(levels) == sorted(levels)
                assert all((level // d + level % d) % 2 == p for level in levels)
                # the position thermal_spectra's gathers rely on
                assert [level // 2 for level in levels] == list(range(len(levels)))
            assert not even.flags.writeable and not odd.flags.writeable

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            build_transform(REF_MODES, d=1)

    def test_level_count_must_be_an_integer(self):
        # 2.0 == 2 as a cache key: a float never reads or fills an integer's entry
        for d in (3.0, 2.5):
            with pytest.raises(ValueError, match="integer"):
                build_transform(REF_MODES, d)
            with pytest.raises(ValueError, match="integer"):
                parity_levels(d)
        pairs = [
            *zip(build_transform(REF_MODES, np.int64(3)), build_transform(REF_MODES, 3)),
            *zip(parity_levels(np.int64(3)), parity_levels(3)),
        ]
        assert all(np.array_equal(got, want) for got, want in pairs)

    def test_closed_form_limited_to_two_levels(self):
        # the closed forms cover levels 0 and 1 in every slot; the build
        # has no such limit, and its d = 3 tensor (order 5) agrees with them
        # on the levels they cover
        built = dense_build(REF_MODES, 3)
        assert built.shape == (9, 9)
        low = [0, 1, 3, 4]  # (n, m) in {0, 1}^2 at d = 3
        closed = closed_form_matrix(REF_MODES)
        assert_allclose(built[np.ix_(low, low)], closed, rtol=0, atol=1e-14)


# (lam, g, method) of the circuits checked against the recurrence oracle
CIRCUITS = [
    (lam, g, method)
    for lam, g in [
        (1.5, 0.1), (0.6, -0.05), (2.2, 0.25), (1.2, 0.1), (1.8, 0.02), (2.5, 0.5)
    ]
    for method in FrequencyMethod
] + [(2.5, 0.9, FrequencyMethod.EXACT)]


class TestRecurrenceOracle:
    # the generating-function recurrence shares no code with the build:
    # no eigenfunctions, no grid, no parity fold
    @pytest.mark.parametrize("lam, g, method", CIRCUITS)
    def test_build_matches_recurrence(self, lam, g, method):
        modes = normal_modes(lam, g, method)
        for d in (2, 6, 9, 12):
            expected = overlap_recurrence(modes, d)
            assert_allclose(dense_build(modes, d), expected, rtol=0, atol=1e-13)

    def test_odd_level_sums_are_exact_zeros(self):
        # the build forms no entry of odd level sum, and the dense matrix
        # holds zeros there; the recurrence, which shares nothing with the
        # build, gives exact zeros at every one of them.  An overlap does
        # not depend on the truncation, so d = 12 covers every d <= 12.
        odd = odd_level_sum(12)
        for lam, g, method in CIRCUITS:
            entries = overlap_recurrence(normal_modes(lam, g, method), 12)
            assert np.all(entries[odd] == 0.0)
            assert np.count_nonzero(entries[~odd]) > 0.9 * np.count_nonzero(~odd)


class TestLeadingBlock:
    # A sweep takes its levels-small tensor from the levels-big build.  An
    # overlap does not depend on the truncation and both rules are exact,
    # so the leading block and the small build each lie within their own
    # gamma_k * S of the same integrals.
    @pytest.mark.parametrize("lam, g, method", CIRCUITS)
    def test_leading_block_equals_smaller_build(self, lam, g, method):
        modes = normal_modes(lam, g, method)
        builds, bounds = {}, {}
        for d in (2, 3, 4, 6, 8, 12, 20, 31, 32):
            builds[d] = dense_build(modes, d)
            bounds[d] = build_rounding_bound(modes, d)
        for d_small, d_big in [(2, 3), (2, 6), (4, 8), (2, 20), (12, 20), (31, 32)]:
            kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
            block = np.ix_(kept, kept)
            gap = np.abs(builds[d_big][block] - builds[d_small])
            assert np.all(gap <= bounds[d_big][block] + bounds[d_small])

    def test_leading_positions_pick_the_small_levels(self):
        # level n*d_small + m of a d_small-level block sits at the position
        # of level n*d + m in the block of its parity of a d-level one
        for d in range(3, 33):
            for d_small in range(2, d):
                positions = leading_positions(d, d_small)
                for p, small in enumerate(parity_levels(d_small)):
                    n, m = np.divmod(small, d_small)
                    assert np.array_equal(parity_levels(d)[p][positions[p]], n * d + m)
                    assert not positions[p].flags.writeable

    def test_marginal_positions_read_each_marginal_factor(self):
        # B holds both parity blocks on the diagonal; the factor a plan reads
        # of each marginal, for columns of parity c, is C with C^T C that
        # marginal's (c, c) block of the partial trace of B^T B, and reads
        # every entry of both blocks once
        rng = np.random.default_rng(11)
        for d in range(2, 14):
            blocks = [rng.standard_normal((len(levels),) * 2) for levels in parity_levels(d)]
            dense = np.zeros((d * d, d * d))
            for block, levels in zip(blocks, parity_levels(d)):
                dense[np.ix_(levels, levels)] = block
            state = (dense.T @ dense).reshape(d, d, d, d)
            traced = (np.einsum("imjm->ij", state), np.einsum("mimj->ij", state))
            row = np.concatenate([block.ravel() for block in blocks])
            plans = marginal_positions(d)
            assert len(plans) == 2
            for marginal, reduced in enumerate(traced):
                read = np.concatenate([plan[marginal].ravel() for plan in plans])
                assert np.array_equal(np.sort(read), np.arange(len(row)))
                for c, plan in enumerate(plans):
                    factor = row.take(plan[marginal])
                    assert_allclose(
                        factor.T @ factor, reduced[c::2, c::2], rtol=1e-12, atol=1e-12
                    )
            assert not any(plan.flags.writeable for plan in plans)

    def test_complement_positions_are_the_rest(self):
        for d in range(3, 33):
            for d_small in range(2, d):
                kept, rest = leading_positions(d, d_small), complement_positions(d, d_small)
                for p, levels in enumerate(parity_levels(d)):
                    together = np.sort(np.concatenate([kept[p], rest[p]]))
                    assert np.array_equal(together, np.arange(len(levels)))
                    assert np.all(np.diff(rest[p]) > 0)
                    assert not rest[p].flags.writeable

    def test_diagonal_positions_split_both_blocks(self):
        # the even block's n x n entries, then the odd block's, row by row
        for d_small in range(2, 32):
            n_even, n_odd = (len(levels) for levels in parity_levels(d_small))
            on, off = diagonal_positions(d_small)
            expected = np.concatenate([
                np.arange(n_even) * (n_even + 1), n_even**2 + np.arange(n_odd) * (n_odd + 1),
            ])
            assert np.array_equal(on, expected)
            every = np.arange(n_even**2 + n_odd**2)
            assert np.array_equal(np.sort(np.concatenate([on, off])), every)
            assert np.all(np.diff(off) > 0)
            assert not (on.flags.writeable or off.flags.writeable)


class TestTruncationLeakage:
    def test_probe_block_shrinks_with_truncation_small_angle(self):
        devs = [probe_block_deviation(REF_MODES, d) for d in (2, 4, 6)]
        assert devs[0] > devs[1] > devs[2]

    def test_probe_block_shrinks_with_truncation_exact_angle(self):
        modes = normal_modes(1.5, 0.1, method=FrequencyMethod.EXACT)
        devs = [probe_block_deviation(modes, d) for d in (2, 4, 6)]
        assert devs[0] > devs[1] > devs[2]
        # the exact-angle substitution is orthogonal, so the block
        # converges all the way to identity
        assert devs[1] < 1e-6
        assert devs[2] < 1e-11

    def test_small_angle_block_plateaus_at_determinant_defect(self):
        # the small-angle substitution scales areas by 1 + phi^2, so
        # the converged block sits at phi^2/(1+phi^2) from identity
        phi = REF_MODES.phi
        dev = probe_block_deviation(REF_MODES, 6)
        assert_allclose(dev, phi**2 / (1 + phi**2), rtol=1e-5)

    def test_leakage_magnitudes_frozen(self):
        # measured once and pinned; the bound tightens fast as g drops
        cases = [
            (1.5, 0.1, 0.08),
            (1.2, 0.1, 0.33),
            (1.5, 0.01, 1e-3),
        ]
        for lam, g, bound in cases:
            u = dense_build(normal_modes(lam, g), 2)
            gram = u.T @ u
            assert np.max(np.abs(gram - np.eye(4))) <= bound

    def test_weak_coupling_leakage_below_tolerance(self):
        # the 1e-3 orthogonality budget holds for lam >= 1.5 once
        # g <= 0.01; at lam = 1.4 it already overshoots (1.1e-3)
        for lam in (1.5, 1.6, 1.8, 2.0):
            for g in (0.002, 0.005, 0.01):
                u = dense_build(normal_modes(lam, g), 2)
                gram = u.T @ u
                assert np.max(np.abs(gram - np.eye(4))) <= 1e-3
