"""Independent references the pipeline is checked against.

Nothing here runs in a sweep.  Each reference is in its plainest form,
with no input checks:

- the 2-D Gaussian integral and its moments in closed form, and a
  tensor-product Gauss-Hermite rule to integrate them numerically;
- the Gaussian shared by every overlap integrand, from the rotation;
- single overlap elements ``<n m | n' m'>``, from Gaussian moments
  (levels 0 and 1) and by quadrature of the integrand (any levels), and
  the whole overlap tensor from a generating-function recurrence;
- the bare-basis thermal state formed as a dense matrix, its partial
  traces and its eigenvalues;
- the rows of a sweep report as dicts, one per (T, q) grid point;
- the entropies of the untruncated Gaussian thermal state, from the
  circuit alone, and by brute force in a Fock basis of the coupled
  Hamiltonian;
- the ground state's bare-mode occupation and the closed-form mutual
  information at both ends of the temperature axis.
"""
import functools
import itertools
import math

import numpy as np

from qubit_entropy.cli import CSV_COLUMNS
from qubit_entropy.model import FrequencyMethod


def gauss2d_integral(a, b):
    """Integral of ``exp(-x^T a x + b . x)`` over the plane, for a positive
    definite 2 x 2 matrix ``a``: ``pi / sqrt(det a) * exp(b^T a^-1 b / 4)``."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1]
    quad = a[1, 1] * b[0] ** 2 - 2.0 * a[0, 1] * b[0] * b[1] + a[0, 0] * b[1] ** 2
    return math.pi / math.sqrt(det) * math.exp(quad / (4.0 * det))


def gauss2d_moment(a, i, j):
    """Integral of ``x1^i x2^j exp(-x^T a x)`` over the plane, for i + j <= 4.

    Wick's theorem in terms of the covariance ``s = a^-1 / 2``; a moment of
    odd degree is exactly zero.
    """
    if (i + j) % 2:
        return 0.0
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1]
    s11, s22, s12 = a[1, 1] / (2.0 * det), a[0, 0] / (2.0 * det), -a[0, 1] / (2.0 * det)
    wick = {
        (0, 0): 1.0,
        (2, 0): s11,
        (0, 2): s22,
        (1, 1): s12,
        (4, 0): 3.0 * s11 * s11,
        (0, 4): 3.0 * s22 * s22,
        (2, 2): s11 * s22 + 2.0 * s12 * s12,
        (3, 1): 3.0 * s11 * s12,
        (1, 3): 3.0 * s22 * s12,
    }
    return math.pi / math.sqrt(det) * wick[i, j]


def quad2d(f, a, order=64):
    """Tensor-product Gauss-Hermite value of the integral of ``f(x1, x2)``.

    The nodes are mapped through the Gaussian ``exp(-x^T a x)``, so the
    rule is exact whenever ``f / exp(-x^T a x)`` is a polynomial of
    per-axis degree below ``2 * order``.
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    # weights for the bare integrand, in log space so w cannot underflow
    v = np.exp(np.log(w) + t * t)
    mu, rot = np.linalg.eigh(a)
    scale = rot @ np.diag(1.0 / np.sqrt(mu))
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    x1 = scale[0, 0] * t1 + scale[0, 1] * t2
    x2 = scale[1, 0] * t1 + scale[1, 1] * t2
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1]
    return float(1.0 / math.sqrt(det) * np.einsum("i,j,ij->", v, v, f(x1, x2)))


def rotation(modes):
    """``(c, s)`` with ``x1' = c x1 + s x2`` and ``x2' = c x2 - s x1``: the
    rotation by ``modes.phi``, linearized under the small-angle method."""
    if modes.method is FrequencyMethod.EXACT:
        return math.cos(modes.phi), math.sin(modes.phi)
    return 1.0, modes.phi


def gaussian_form(modes):
    """The matrix ``a`` of the Gaussian ``exp(-x^T a x)`` of every overlap
    integrand, ``(diag(1, lam) + M^T diag(omega1, omega2) M) / 2``: the
    exponents of the four eigenfunctions, with ``M = [[c, s], [-s, c]]``
    taking ``(x1, x2)`` to the normal-mode coordinates ``(x1', x2')``."""
    c, s = rotation(modes)
    m = np.array([[c, s], [-s, c]])
    omegas = np.diag([modes.omega1, modes.omega2])
    return 0.5 * (np.diag([1.0, modes.lam]) + m.T @ omegas @ m)


def overlap_element_closed(n, m, n2, m2, modes):
    """``<n m | n' m'>`` for levels 0 and 1, from Gaussian moments.

    H_1 is linear, so each level-1 eigenfunction contributes its argument
    and the integrand is a polynomial of total degree at most four times
    the Gaussian of :func:`gaussian_form`.  Odd level sums give odd
    moments only, and an exact zero.  At g = 0 the bases coincide and the
    element is a Kronecker delta.
    """
    if modes.g == 0.0 and modes.phi == 0.0:
        return 1.0 if (n, m) == (n2, m2) else 0.0
    c, s = rotation(modes)
    # the arguments x1, x2, x1' and x2' as {(power of x1, power of x2): coefficient}
    arguments = (
        {(1, 0): 1.0}, {(0, 1): 1.0}, {(1, 0): c, (0, 1): s}, {(0, 1): c, (1, 0): -s}
    )
    poly = {(0, 0): 1.0}
    for level, factor in zip((n, m, n2, m2), arguments):
        if level:
            product = {}
            for (i1, j1), c1 in poly.items():
                for (i2, j2), c2 in factor.items():
                    key = (i1 + i2, j1 + j2)
                    product[key] = product.get(key, 0.0) + c1 * c2
            poly = product
    a = gaussian_form(modes)
    total = sum(coeff * gauss2d_moment(a, i, j) for (i, j), coeff in poly.items())
    lam, w1, w2 = modes.lam, modes.omega1, modes.omega2
    kappa = (lam * w1 * w2) ** -0.25
    scale = (
        2.0 ** (0.5 * (n + m + n2 + m2))
        * lam ** (0.5 * m) * w1 ** (0.5 * n2) * w2 ** (0.5 * m2)
    )
    return scale / (math.pi * kappa) * total


def closed_form_matrix(modes):
    """The d = 2 overlap tensor assembled from :func:`overlap_element_closed`."""
    levels = [(n, m) for n in range(2) for m in range(2)]
    return np.array(
        [[overlap_element_closed(*bare, *mode, modes) for mode in levels]
         for bare in levels]
    )


def overlap_element_quadrature(n, m, n2, m2, modes):
    """``<n m | n' m'>`` for any levels, by quadrature of its integrand.

    The four eigenfunctions are evaluated on the 64-node :func:`quad2d`
    grid and summed: no parity fold and no shared tables.  Each is
    ``(2^n n! sqrt(pi) l)^(-1/2) exp(-y^2/2) H_n(y)`` at ``y = x / l``, with
    H_n from numpy's Hermite series, not the package's recurrence.
    """
    c, s = rotation(modes)

    def psi(level, x, length_scale):
        norm = (2.0**level * math.factorial(level) * math.sqrt(math.pi) * length_scale) ** -0.5
        y = x / length_scale
        hermite = np.polynomial.hermite.hermval(y, [0.0] * level + [1.0])
        return norm * np.exp(-0.5 * y * y) * hermite

    def integrand(x1, x2):
        return (
            psi(n, x1, 1.0)
            * psi(m, x2, 1.0 / math.sqrt(modes.lam))
            * psi(n2, c * x1 + s * x2, 1.0 / math.sqrt(modes.omega1))
            * psi(m2, c * x2 - s * x1, 1.0 / math.sqrt(modes.omega2))
        )

    return quad2d(integrand, gaussian_form(modes))


def overlap_recurrence(modes, d):
    """The (d*d, d*d) overlap tensor from the generating function, with no
    eigenfunctions and no grid.

    With ``y = P^T x`` the four eigenfunction arguments,
    ``P = [diag(1, sqrt(lam)) | M^T diag(sqrt(omega1), sqrt(omega2))]``,
    the generating functions of the four eigenfunctions integrate against
    the Gaussian ``a`` of :func:`gaussian_form` to
    ``sum_k U_k s^k / sqrt(k!) = U_0 exp(s^T Q s / 2)`` over the level
    quadruples k = (n, m, n', m'), with ``Q = P^T a^-1 P - I`` and
    ``U_0 = (lam omega1 omega2)^(1/4) / sqrt(det a)``.  Its derivative in
    ``s_i`` gives ``sqrt(k_i + 1) U_{k+e_i} = sum_j Q_ij sqrt(k_j) U_{k-e_j}``.

    An oracle only: the recurrence cancels at strong coupling and loses
    accuracy as d grows (1.6e-10 at d = 24 for lam = 2.5, g = 0.9).
    """
    c, s = rotation(modes)
    m = np.array([[c, s], [-s, c]])
    a = gaussian_form(modes)
    omegas = np.sqrt([modes.omega1, modes.omega2])
    p = np.hstack([np.diag([1.0, math.sqrt(modes.lam)]), m.T * omegas])
    q = p.T @ np.linalg.solve(a, p) - np.eye(4)
    u = np.zeros((d,) * 4)
    u[0, 0, 0, 0] = (modes.lam * modes.omega1 * modes.omega2) ** 0.25 / math.sqrt(
        np.linalg.det(a)
    )
    # lexicographic order: every k - e_j comes before k
    for k in itertools.product(range(d), repeat=4):
        if any(k):
            i = next(j for j in range(4) if k[j])
            prev = list(k)
            prev[i] -= 1
            total = 0.0
            for j in range(4):
                if prev[j]:
                    lower = list(prev)
                    lower[j] -= 1
                    total += q[i, j] * math.sqrt(prev[j]) * u[tuple(lower)]
            u[k] = total / math.sqrt(k[i])
    return u.reshape(d * d, d * d)


def dense_states(weights, u):
    """The bare-basis thermal states ``U^T diag(w) U / tr``, formed, one per
    row of ``weights`` (normal-mode populations); ``u`` is the matrix of U."""
    states = (u.T * weights[:, None, :]) @ u
    return states / np.trace(states, axis1=1, axis2=2)[:, None, None]


def unit_trace(matrices):
    """A matrix, or a stack of them, each divided by its trace."""
    matrices = np.asarray(matrices, dtype=float)
    return matrices / np.trace(matrices, axis1=-2, axis2=-1)[..., None, None]


def partial_traces(states):
    """Both marginals of a stack of two-mode states, shape ``(2, k, d, d)``:
    index 0 keeps the first label of the ``n*d + m`` index, index 1 the second."""
    d = math.isqrt(states.shape[-1])
    blocks = states.reshape(*states.shape[:-2], d, d, d, d)
    return np.stack(
        [np.einsum("...imjm->...ij", blocks), np.einsum("...ninj->...ij", blocks)]
    )


def spectra(states):
    """Ascending eigenvalues of each state in a stack, clipped at zero."""
    return np.clip(np.linalg.eigvalsh(states), 0.0, None)


def sweep_rows(sweep):
    """One dict per (T, q) grid point of a sweep, keyed by CSV_COLUMNS, in
    T-major order; the margin column repeats I."""
    mu_block, mu_complement, offdiag = sweep.diagnostics.tolist()
    by_q = sweep.entropies.tolist()
    rows = []
    for i, temperature in enumerate(sweep.temperatures.tolist()):
        diagnostics = (mu_block[i], mu_complement[i], offdiag[i])
        for q, (s_joint, s_first, s_second, margin) in zip(sweep.q_values, by_q):
            entropies = (s_joint[i], s_first[i], s_second[i], margin[i], margin[i])
            values = (temperature, q, *entropies, *diagnostics)
            rows.append(dict(zip(CSV_COLUMNS, values)))
    return rows


def gaussian_entropies(lam, g, temperatures, q):
    """``(S_joint, S_1, S_2, margin)`` of the untruncated thermal state of
    the coupled pair at entropic index q, each of shape ``(k,)`` for k
    temperatures, with no basis, no truncation and no spectrum.

    The state is Gaussian (Weedbrook et al., RMP 84, 621 (2012)).  With R
    the eigenvectors of the potential ``K = [[1, g*lam], [g*lam, lam^2]]``,
    ``omega_k = sqrt(eig K)`` and ``c_k = coth(omega_k / 2T) / 2``, bare
    mode i has ``<x_i^2> = sum_k R_ik^2 c_k / omega_k`` and
    ``<p_i^2> = sum_k R_ik^2 c_k omega_k``; its reduced state is thermal,
    with symplectic eigenvalue ``nu_i = sqrt(<x_i^2> <p_i^2>)`` and
    occupation ``n = nu_i - 1/2``.  The joint state is thermal in the
    normal modes, with occupations ``1 / (exp(omega_k / T) - 1)``.  A mode
    of occupation n has ``S = (n+1) ln(n+1) - n ln n`` and
    ``Tr rho^q = 1 / ((n+1)^q - n^q)``; joint entropies add over the
    normal modes and joint traces multiply.
    """
    t = np.asarray(temperatures, dtype=float)[:, None]
    omega_sq, r = np.linalg.eigh([[1.0, g * lam], [g * lam, lam * lam]])
    omega = np.sqrt(omega_sq)
    c = 0.5 / np.tanh(omega / (2.0 * t))
    x_sq, p_sq = (c / omega) @ (r * r).T, (c * omega) @ (r * r).T
    bare = np.maximum(np.sqrt(x_sq * p_sq) - 0.5, 0.0)
    normal = 1.0 / np.expm1(omega / t)

    if abs(q - 1.0) < 1e-6:
        def entropy(n):
            return (n + 1.0) * np.log1p(n) - n * np.log(n, where=n > 0, out=np.zeros_like(n))

        s_joint = entropy(normal).sum(axis=1)
        s_first, s_second = entropy(bare).T
    else:
        def trace(n):
            return 1.0 / ((n + 1.0) ** q - n**q)

        s_joint = (1.0 - trace(normal).prod(axis=1)) / (q - 1.0)
        s_first, s_second = ((1.0 - trace(bare)) / (q - 1.0)).T
    return s_joint, s_first, s_second, s_first + s_second - s_joint


def ground_state_occupation(lam, g):
    """Occupation of either bare mode in the ground state of the coupled
    pair, ``sqrt(1 + c^2 s^2 (omega1 - omega2)^2 / (omega1 omega2)) / 2 - 1/2``.

    ``(c, s)`` is the exact rotation and ``omega_k`` are the normal-mode
    frequencies, from the potential of :func:`gaussian_entropies`; the
    ground state has ``<x^2> <p^2> = (c^2/omega1 + s^2/omega2)
    (c^2 omega1 + s^2 omega2) / 4`` in either mode.  Written as
    ``x / (2 (sqrt(1 + x) + 1))`` so a weak coupling does not cancel.  For
    small g it is about ``g^2 lam / (4 (1 + lam)^2)``, with no singularity
    at lam = 1.
    """
    omega_sq, r = np.linalg.eigh([[1.0, g * lam], [g * lam, lam * lam]])
    w1, w2 = np.sqrt(omega_sq)
    cs = r[0, 0] * r[0, 1]
    x = cs * cs * (w1 - w2) ** 2 / (w1 * w2)
    return 0.5 * x / (math.sqrt(1.0 + x) + 1.0)


def mutual_information_cold(lam, g):
    """The mutual information of the ground state, ``I_0 = 2 S(n0)`` with
    ``S(n) = (n+1) ln(n+1) - n ln n`` and n0 the
    :func:`ground_state_occupation`: the state is pure, so both marginals
    share its entropy and the joint entropy is zero."""
    n = ground_state_occupation(lam, g)
    if n == 0.0:
        return 0.0
    return 2.0 * ((n + 1.0) * math.log1p(n) - n * math.log(n))


def mutual_information_hot(g):
    """The classical limit of the mutual information, ``-ln(1 - g^2) / 2``
    for any lam: the positions have correlation -g and the momenta are
    uncorrelated."""
    return -0.5 * math.log1p(-g * g)


@functools.lru_cache(maxsize=4)
def _fock_eigh(lam, g, levels):
    """Eigenpairs of ``H = n1 + lam n2 + g lam x1 x2`` on ``levels`` bare
    levels per mode, index ``n*levels + m``, with ``x1 = (a + a^+)/sqrt 2``
    and ``x2 = (b + b^+)/sqrt(2 lam)``."""
    n = np.arange(levels, dtype=float)
    x = np.diag(np.sqrt(n[1:] / 2.0), 1)
    x = x + x.T
    eye = np.eye(levels)
    h = np.kron(np.diag(n), eye) + lam * np.kron(eye, np.diag(n))
    h += g * math.sqrt(lam) * np.kron(x, x)
    return np.linalg.eigh(h)


def fock_entropies(lam, g, temperature, q, levels=24):
    """``(S_joint, S_1, S_2, margin)`` of the thermal state of the coupled
    pair at one temperature and entropic index q, by brute force: the
    Hamiltonian is diagonalized in a truncated bare Fock basis (one
    ``eigh`` per circuit, cached), the joint spectrum is its Boltzmann
    weights, and the marginal spectra come from ``eigvalsh`` of the
    partial traces of the formed thermal state.  Converges to
    :func:`gaussian_entropies` once the Boltzmann weight of the truncated
    levels is negligible.
    """
    energies, vectors = _fock_eigh(lam, g, levels)
    weights = np.exp(-(energies - energies[0]) / temperature)
    weights /= weights.sum()
    state = (vectors * weights) @ vectors.T

    def entropy(p):
        p = p[p > 0]
        if abs(q - 1.0) < 1e-6:
            return float(-(p * np.log(p)).sum())
        return float((1.0 - (p**q).sum()) / (q - 1.0))

    s_joint = entropy(weights)
    s_first, s_second = (entropy(p) for p in spectra(partial_traces(state)))
    return s_joint, s_first, s_second, s_first + s_second - s_joint
