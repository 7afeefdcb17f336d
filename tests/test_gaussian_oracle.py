"""The exact entropies of the Gaussian thermal state, against the pipeline.

``oracles.gaussian_entropies`` takes the circuit alone: no overlap
tensor, no truncation and no spectrum.  The state the physics asks for
puts the Boltzmann weights on the normal-mode levels, which is
``thermal_spectra`` with each block of U transposed; at d = 12 with exact modes the truncated
state meets the oracle to about 1e-8.  The sweep passes ``u`` instead,
a state of neither Hamiltonian, which the strict xfail below pins.
``oracles.fock_entropies`` diagonalizes the coupled Hamiltonian in a
truncated Fock basis and shares no code with either.  The oracle's two
ends of the temperature axis have closed forms of their own.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    fock_entropies,
    gaussian_entropies,
    ground_state_occupation,
    mutual_information_cold,
    mutual_information_hot,
)
from qubit_entropy.entropy import bipartite_entropies
from qubit_entropy.model import FrequencyMethod, normal_modes
from qubit_entropy.state import thermal_spectra, thermal_weights
from qubit_entropy.transform import build_transform

# (lam, g, T)
POINTS = [(1.5, 0.1, 0.5), (0.6, -0.3, 0.3), (1.5, 0.1, 0.01), (2.5, 0.3, 0.5)]
D = 12


def truncated_entropies(lam, g, temperature, q, flipped):
    """``(S_joint, S_1, S_2, margin)`` of the d = 12 state, exact modes."""
    modes = normal_modes(lam, g, FrequencyMethod.EXACT)
    u = build_transform(modes, D)
    weights = thermal_weights(modes, [temperature], D)
    joint, marginals = thermal_spectra(weights, tuple(b.T for b in u) if flipped else u)
    return np.array(bipartite_entropies(joint, marginals, q))[:, 0]


def test_reproduces_reference_bare_mode_entropies():
    # S_1 at q = 1; a Fock-space diagonalization of the coupled
    # Hamiltonian on 24 levels per mode gives the same digits
    expected = [0.4633160304, 0.2048193849, 0.005081823074]
    for (lam, g, temperature), value in zip(POINTS, expected):
        s_first = gaussian_entropies(lam, g, [temperature], 1.0)[1][0]
        assert_allclose(s_first, value, rtol=1e-9)


# (lam, g): the circuits of POINTS, and a weak and a strong coupling
CIRCUITS = [(1.5, 0.1), (1.5, 0.01), (0.6, -0.3), (2.5, 0.3), (1.5, 0.3)]


@pytest.mark.parametrize("lam, g", CIRCUITS)
def test_cold_limit_meets_the_oracle(lam, g):
    # gaps at most 2.2e-11 relative, at g = 0.01.  Below T = 0.01 the
    # oracle's expm1 overflows, which warns.
    got = gaussian_entropies(lam, g, [0.01], 1.0)[3][0]
    assert_allclose(got, mutual_information_cold(lam, g), rtol=1e-10)


@pytest.mark.parametrize("lam, g", CIRCUITS)
def test_hot_limit_meets_the_oracle(lam, g):
    # gaps at most 1.2e-8 relative, at g = 0.01: the oracle's own
    # cancellation, which grows with ln T at small g
    got = gaussian_entropies(lam, g, [1e3], 1.0)[3][0]
    assert_allclose(got, mutual_information_hot(g), rtol=5e-8)


@pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 2.5])
def test_ground_state_occupation_is_quadratic_in_g(lam):
    # the relative gap to g^2 lam / (4 (1 + lam)^2) is O(g^2): it falls by
    # 4.10, 4.02 and 4.01 as g halves from 0.2 to 0.025
    gaps = [
        ground_state_occupation(lam, g) / (g * g * lam / (4.0 * (1.0 + lam) ** 2)) - 1.0
        for g in (0.2, 0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert abs(coarse / fine / 4.0 - 1.0) < 0.03


@pytest.mark.parametrize("lam, g, temperature", POINTS)
def test_fock_oracle_meets_the_gaussian_oracle(lam, g, temperature):
    # 24 levels per mode; gaps at most 6.6e-15
    for q in (1.0, 2.0):
        got = np.array(fock_entropies(lam, g, temperature, q))
        expected = np.array(gaussian_entropies(lam, g, [temperature], q))[:, 0]
        assert np.all(np.abs(got - expected) <= 1e-13)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam, g, temperature", POINTS)
def test_flipped_state_converges_to_the_oracle(lam, g, temperature, q):
    # the largest error falls strictly with d until it reaches rounding:
    # 1.1e-1, 2.0e-2, 3.4e-3, 9.2e-5, 2.3e-6, 1.3e-9 at (1.5, 0.1, 0.5), q = 1
    modes = normal_modes(lam, g, FrequencyMethod.EXACT)
    expected = np.array(gaussian_entropies(lam, g, [temperature], q))[:, 0]
    errors = []
    for d in (2, 3, 4, 6, 8, 12):
        weights = thermal_weights(modes, [temperature], d)
        u_flipped = tuple(block.T for block in build_transform(modes, d))
        joint, marginals = thermal_spectra(weights, u_flipped)
        got = np.array(bipartite_entropies(joint, marginals, q))[:, 0]
        errors.append(np.abs(got - expected).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < coarse if coarse > 1e-13 else fine <= 1e-13


@pytest.mark.parametrize("q, tol", [(1.0, 1e-8), (2.0, 1e-8), (0.5, 1e-4)])
@pytest.mark.parametrize("lam, g, temperature", POINTS)
def test_flipped_state_meets_the_oracle(lam, g, temperature, q, tol):
    # gaps at most 7.2e-9, 4.9e-10 and 5.8e-5 at q = 1, 2 and 0.5
    got = truncated_entropies(lam, g, temperature, q, flipped=True)
    expected = np.array(gaussian_entropies(lam, g, [temperature], q))[:, 0]
    assert np.all(np.abs(got - expected) <= tol)


@pytest.mark.xfail(
    strict=True,
    reason="the sweep weights the bare levels (U^T diag(w) U); its entropies "
    "miss the oracle by 2.3e-4 to 1.0e-2 until the basis change is flipped",
)
def test_sweep_orientation_meets_the_oracle():
    for lam, g, temperature in POINTS:
        got = truncated_entropies(lam, g, temperature, 1.0, flipped=False)
        expected = np.array(gaussian_entropies(lam, g, [temperature], 1.0))[:, 0]
        assert np.all(np.abs(got - expected) <= 1e-6)
