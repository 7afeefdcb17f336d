"""Every entropy cell against a 60-digit oracle that shares no code past U.

The oracle takes the sweep's own overlap tensor U and normal-mode
frequencies, then forms the thermal weights, the state
``U^T diag(w) U / tr``, both marginals, their eigenvalues and the
entropies in mpmath at 60 significant digits.  Every ``S_joint``,
``S_1``, ``S_2`` and ``I`` cell of the sweep must meet the golden gate
(rel 1e-9, abs 1e-12) against it.  The cold, q < 1 cells are the hard
ones: there ``p**q`` magnifies any absolute error in a small eigenvalue.
"""
import mpmath
import pytest

from qubit_entropy.cli import parse_config, run_sweep
from qubit_entropy.model import CircuitParams
from qubit_entropy.transform import build_transform

DIGITS = 60
REL, ABS = 1e-9, 1e-12


def mp_entropy(p, q):
    if q == 1:
        return -mpmath.fsum(x * mpmath.log(x) for x in p if x > 0)
    return (1 - mpmath.fsum(x**q for x in p)) / (q - 1)


def mp_spectrum(matrix):
    # 60 digits leave eigenvalues off by about 1e-60: clip those below 0
    return [max(x, 0) for x in mpmath.eigsy(matrix, eigvals_only=True)]


def oracle_cells(u, modes, d, temperature, q_values):
    """``(S_joint, S_1, S_2, I)`` per q for one temperature, as floats."""
    with mpmath.workdps(DIGITS):
        w1, w2 = mpmath.mpf(modes.omega1), mpmath.mpf(modes.omega2)
        t = mpmath.mpf(temperature)
        weights = [mpmath.exp(-(n * w1 + m * w2) / t) for n in range(d) for m in range(d)]
        dim = d * d
        mp_u = mpmath.matrix(u.tolist())
        rho = mpmath.matrix(dim, dim)
        for a in range(dim):
            for b in range(a, dim):
                rho[a, b] = rho[b, a] = mpmath.fsum(
                    mp_u[i, a] * weights[i] * mp_u[i, b] for i in range(dim)
                )
        trace = mpmath.fsum(rho[a, a] for a in range(dim))
        rho = rho / trace
        first, second = mpmath.matrix(d, d), mpmath.matrix(d, d)
        for i in range(d):
            for j in range(d):
                first[i, j] = mpmath.fsum(rho[i * d + k, j * d + k] for k in range(d))
                second[i, j] = mpmath.fsum(rho[k * d + i, k * d + j] for k in range(d))
        joint, p1, p2 = mp_spectrum(rho), mp_spectrum(first), mp_spectrum(second)
        cells = []
        for q in q_values:
            q = mpmath.mpf(q)
            s_joint, s_1, s_2 = mp_entropy(joint, q), mp_entropy(p1, q), mp_entropy(p2, q)
            cells.append([float(x) for x in (s_joint, s_1, s_2, s_1 + s_2 - s_joint)])
        return cells


def misses(argv, columns=("S_joint", "S_1", "S_2", "I"), rel=REL, abs=ABS):
    """Cells of the sweep for ``argv`` outside the gate around the oracle."""
    config = parse_config(argv)
    sweep = run_sweep(config)
    params = CircuitParams(lam=config.lam, g=config.g)
    u = build_transform(params, config.modes, d=config.levels_small)
    bad = []
    for k, temperature in enumerate(sweep.temperatures.tolist()):
        oracle = oracle_cells(
            u, config.modes, config.levels_small, temperature, config.q_values
        )
        for i, q in enumerate(config.q_values):
            for column, name in enumerate(columns):
                got, want = float(sweep.entropies[i, column, k]), oracle[i][column]
                if got != pytest.approx(want, rel=rel, abs=abs):
                    bad.append(f"T={temperature:.6g} q={q} {name}: {got!r} vs {want!r}")
    return bad


def test_default_sweep_matches_oracle():
    assert misses([]) == []


def test_default_sweep_entropies_match_oracle_relatively():
    # a nearly pure spectrum takes its entropy from the small eigenvalues,
    # so every entropy cell, down to S_joint = 4.2e-22, keeps its leading
    # digits: a relative gate with no absolute floor (the mutual
    # information, a difference, is left to the gate above)
    assert misses([], columns=("S_joint", "S_1", "S_2"), rel=1e-11, abs=0.0) == []


@pytest.mark.parametrize("lam, g", [(0.4603, 0.2856), (2.5, 0.3)])
def test_cold_deep_circuits_match_oracle(lam, g):
    # levels-small 4 from T = 1e-9, below the ground-state cut-off, where
    # the small eigenvalues span dozens of decades
    argv = [
        "--lambda", str(lam), "--g", str(g), "--levels-small", "4",
        "--levels-big", "5", "--t-min", "1e-9", "--t-max", "2", "--t-steps", "16",
        "--t-scale", "log", "--q", "0.3,0.5,1,2",
    ]
    assert misses(argv) == []
