"""The exact entropies of the Gaussian thermal state, against the pipeline.

``oracles.gaussian_entropies`` takes the circuit alone: no overlap
tensor, no truncation and no spectrum.  The state the physics asks for
puts the Boltzmann weights on the normal-mode levels, which is
``thermal_spectra(w, u.T)``; at d = 12 with exact modes the truncated
state meets the oracle to about 1e-8.  The sweep passes ``u`` instead,
a state of neither Hamiltonian, which the strict xfail below pins.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import gaussian_entropies
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
    joint, marginals = thermal_spectra(weights, u.T if flipped else u)
    return np.array(bipartite_entropies(joint, marginals, q))[:, 0]


def test_reproduces_reference_bare_mode_entropies():
    # S_1 at q = 1; a Fock-space diagonalization of the coupled
    # Hamiltonian on 24 levels per mode gives the same digits
    expected = [0.4633160304, 0.2048193849, 0.005081823074]
    for (lam, g, temperature), value in zip(POINTS, expected):
        s_first = gaussian_entropies(lam, g, [temperature], 1.0)[1][0]
        assert_allclose(s_first, value, rtol=1e-9)


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
