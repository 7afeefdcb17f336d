"""Output checks run on every benchmark pass, outside the timed region.

Each check is computed apart from the program or follows from a
property the method must have; none compares against stored output.
Tolerances are fixed from float64 rounding and from the 12 significant
digits the program prints:

* A printed value carries a relative error of at most ``OUT_REL``.
* An eigenvalue of the joint state or of a marginal is off by at most
  ``delta = 16 * d_small**2 * eps`` (eigensolver backward error on the
  joint state, with headroom for the basis change that forms it).  An
  entropy computed from D such eigenvalues is then off by at most
  ``D * delta**q / (1 - q)`` for q < 1 (``x**q`` is subadditive),
  ``D * delta * (1 + |ln delta|)`` at q = 1 and ``D * q * delta / (q - 1)``
  for q > 1.  The q < 1 allowance is the loosest: there rounding-level
  eigenvalues are raised to a fractional power.

A check returns a list of messages; an empty list means it passed.
"""
from __future__ import annotations

import json
import math

import numpy as np

from workloads import Call

COLUMNS = ("T", "q", "S_joint", "S_1", "S_2", "I", "margin", "mu_I", "mu_II", "offdiag_sum")
COL = {name: i for i, name in enumerate(COLUMNS)}

EPS = float(np.finfo(float).eps)
OUT_REL = 5e-12 + 4 * EPS


def parse_output(path: str, output_format: str) -> np.ndarray:
    """Read a CSV or JSON report back into a (rows, len(COLUMNS)) array."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if output_format == "json":
        records = json.loads(text)
        for record in records:
            if set(record) != set(COLUMNS):
                raise ValueError(f"JSON row keys {sorted(record)} do not match the schema")
        return np.array([[record[c] for c in COLUMNS] for record in records], dtype=float)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError(f"CSV header {lines[:1]} does not match the schema")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return table.reshape(-1, len(COLUMNS))


def _eig_delta(call: Call) -> float:
    return 16 * call.levels_small**2 * EPS


def entropy_error(q: float, dim: int, delta: float) -> float:
    """Bound on the rounding error of S_q over ``dim`` eigenvalues off by delta."""
    if q < 1:
        return dim * delta**q / (1 - q)
    if q == 1:
        return dim * delta * (1 - math.log(delta))
    return dim * q * delta / (q - 1)


def _entropy_errors(call: Call, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row error bounds for the joint entropy and for each marginal."""
    delta = _eig_delta(call)
    joint = np.array([entropy_error(x, call.levels_small**2, delta) for x in q])
    marginal = np.array([entropy_error(x, call.levels_small, delta) for x in q])
    return joint, marginal


def _diag_error(call: Call) -> float:
    # mu_I, mu_II and offdiag_sum are sums over a block of the d_big state,
    # whose entries are off by about d_big^2 * eps each
    return 32 * call.levels_small**2 * call.levels_big**2 * EPS


def _bad(mask: np.ndarray, table: np.ndarray, what: str) -> list[str]:
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return []
    r = int(rows[0])
    t, q = float(table[r, COL["T"]]), float(table[r, COL["q"]])
    return [f"{what}: {rows.size} row(s), first at T={t!r} q={q!r}"]


def temperature_grid(call: Call) -> list[float]:
    """The sweep's temperatures, recomputed in plain Python."""
    n = call.t_steps - 1
    if call.t_scale == "log":
        return [call.t_min * (call.t_max / call.t_min) ** (i / n) for i in range(n + 1)]
    return [call.t_min + (call.t_max - call.t_min) * i / n for i in range(n + 1)]


def check_shape(table: np.ndarray, call: Call) -> list[str]:
    expected = call.t_steps * len(call.q_values)
    if table.shape[0] != expected:
        return [f"row count {table.shape[0]} != t_steps * len(q) = {expected}"]
    return []


def check_finite(table: np.ndarray, call: Call) -> list[str]:
    return _bad(~np.isfinite(table).all(axis=1), table, "non-finite value")


def check_grid(table: np.ndarray, call: Call) -> list[str]:
    nq = len(call.q_values)
    t_expected = np.repeat(temperature_grid(call), nq)
    q_expected = np.tile(call.q_values, call.t_steps)
    t, q = table[:, COL["T"]], table[:, COL["q"]]
    bad = (np.abs(t - t_expected) > 2 * OUT_REL * np.abs(t_expected)) | (
        np.abs(q - q_expected) > OUT_REL * np.abs(q_expected)
    )
    return _bad(bad, table, "T or q off the requested grid")


def check_mutual_info(table: np.ndarray, call: Call) -> list[str]:
    sj, s1, s2, mi, margin = (table[:, COL[c]] for c in ("S_joint", "S_1", "S_2", "I", "margin"))
    slack = OUT_REL * (np.abs(sj) + np.abs(s1) + np.abs(s2) + np.abs(mi))
    return _bad(margin != mi, table, "margin != I") + _bad(
        np.abs(mi - (s1 + s2 - sj)) > slack, table, "I != S_1 + S_2 - S_joint"
    )


def _entropy_max(q: np.ndarray, dim: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        tsallis = (float(dim) ** (1 - q) - 1) / (1 - q)
    return np.where(q == 1, math.log(dim), tsallis)


def check_entropy_bounds(table: np.ndarray, call: Call) -> list[str]:
    q = table[:, COL["q"]]
    err_joint, err_marginal = _entropy_errors(call, q)
    out: list[str] = []
    for column, dim, err in (
        ("S_joint", call.levels_small**2, err_joint),
        ("S_1", call.levels_small, err_marginal),
        ("S_2", call.levels_small, err_marginal),
    ):
        s = table[:, COL[column]]
        top = _entropy_max(q, dim)
        bad = (s < -err - OUT_REL * np.abs(s)) | (s > top + err + OUT_REL * top)
        out += _bad(bad, table, f"{column} outside [0, S_max(D={dim})]")
    return out


def check_q1_inequalities(table: np.ndarray, call: Call) -> list[str]:
    rows = table[table[:, COL["q"]] == 1.0]
    if rows.size == 0:
        return []
    sj, s1, s2, mi = (rows[:, COL[c]] for c in ("S_joint", "S_1", "S_2", "I"))
    err_joint, err_marginal = _entropy_errors(call, rows[:, COL["q"]])
    slack = err_joint + 2 * err_marginal + OUT_REL * (np.abs(sj) + np.abs(s1) + np.abs(s2))
    return _bad(mi < -slack, rows, "I < 0 at q = 1") + _bad(
        sj < np.abs(s1 - s2) - slack, rows, "S_joint < |S_1 - S_2| at q = 1"
    )


def check_monotone_in_q(table: np.ndarray, call: Call) -> list[str]:
    nq = len(call.q_values)
    if nq < 2:
        return []
    order = np.argsort(call.q_values)
    out: list[str] = []
    for column, dim in (("S_joint", call.levels_small**2), ("S_1", call.levels_small), ("S_2", call.levels_small)):
        s = table[:, COL[column]].reshape(call.t_steps, nq)[:, order]
        q = np.asarray(call.q_values)[order]
        err = np.array([entropy_error(x, dim, _eig_delta(call)) for x in q])
        slack = err[1:] + err[:-1] + OUT_REL * (np.abs(s[:, 1:]) + np.abs(s[:, :-1]))
        bad = (s[:, 1:] > s[:, :-1] + slack).any(axis=1)
        out += _bad(np.repeat(bad, nq), table, f"{column} increases with q")
    return out


def check_purity_range(table: np.ndarray, call: Call) -> list[str]:
    mu = table[:, COL["mu_I"]]
    slack = _diag_error(call) + OUT_REL
    floor = 1.0 / call.levels_small**2
    return _bad((mu < floor - slack) | (mu > 1 + slack), table, "mu_I outside [1/d_small^2, 1]")


ROW_CHECKS = (
    check_shape,
    check_finite,
    check_grid,
    check_mutual_info,
    check_entropy_bounds,
    check_q1_inequalities,
    check_monotone_in_q,
    check_purity_range,
)


def check_sign_symmetry(calls: list[Call], tables: list[np.ndarray]) -> list[str]:
    """Circuits (lam, g) and (lam, -g) are mirror images: every column agrees."""
    by_circuit = {(c.lam, c.g): (c, t) for c, t in zip(calls, tables)}
    out: list[str] = []
    for (lam, g), (call, plus) in by_circuit.items():
        if g <= 0 or (lam, -g) not in by_circuit:
            continue
        minus = by_circuit[(lam, -g)][1]
        if plus.shape != minus.shape:
            out.append(f"lambda={lam} g=+-{g}: row counts differ")
            continue
        err_joint, err_marginal = _entropy_errors(call, plus[:, COL["q"]])
        for column in COLUMNS:
            a, b = plus[:, COL[column]], minus[:, COL[column]]
            if column == "S_joint":
                err = 2 * err_joint
            elif column in ("S_1", "S_2"):
                err = 2 * err_marginal
            elif column in ("I", "margin"):
                err = 2 * (err_joint + 2 * err_marginal)
            elif column in ("T", "q"):
                err = 0.0
            else:
                err = 2 * _diag_error(call)
            bad = np.abs(a - b) > err + OUT_REL * (np.abs(a) + np.abs(b))
            out += [f"lambda={lam} g=+-{g}: {m}" for m in _bad(bad, plus, f"{column} differs")]
    return out


def reference_tsallis(weights: np.ndarray, q: float) -> float:
    """Tsallis (q != 1) or von Neumann (q == 1) entropy of a probability vector."""
    p = weights / weights.sum()
    if q == 1:
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())
    return float((1 - (p**q).sum()) / (q - 1))


def check_product_state(calls: list[Call], tables: list[np.ndarray]) -> list[str]:
    """At g = 0 the state is a product of two truncated thermal states.

    Then I(q=1) = 0, S_joint = S_1 + S_2 + (1 - q) S_1 S_2, and each
    marginal is the entropy of truncated Boltzmann weights with level
    spacing 1 (first circuit) or lambda (second).
    """
    out: list[str] = []
    for call, table in zip(calls, tables):
        if call.g != 0.0:
            continue
        levels = np.arange(call.levels_small, dtype=float)
        err_joint, err_marginal = _entropy_errors(call, table[:, COL["q"]])
        # the exact grid, not the printed T: 12 digits of T move S by ~1e-12
        nq = len(call.q_values)
        grid = temperature_grid(call)
        for r, row in enumerate(table):
            t, q = grid[r // nq], call.q_values[r % nq]
            sj, s1, s2, mi = (float(row[COL[c]]) for c in ("S_joint", "S_1", "S_2", "I"))
            expect_1 = reference_tsallis(np.exp(-levels / t), q)
            expect_2 = reference_tsallis(np.exp(-levels * call.lam / t), q)
            expect_joint = s1 + s2 + (1 - q) * s1 * s2
            where = f"lambda={call.lam} g=0 T={t!r} q={q!r}"
            if abs(s1 - expect_1) > err_marginal[r] + OUT_REL * abs(expect_1):
                out.append(f"{where}: S_1={s1!r} but Boltzmann weights give {expect_1!r}")
            if abs(s2 - expect_2) > err_marginal[r] + OUT_REL * abs(expect_2):
                out.append(f"{where}: S_2={s2!r} but Boltzmann weights give {expect_2!r}")
            pseudo_slack = err_joint[r] + err_marginal[r] * (2 + abs(1 - q) * (s1 + s2))
            if abs(sj - expect_joint) > pseudo_slack + 2 * OUT_REL * (abs(sj) + abs(expect_joint)):
                out.append(f"{where}: S_joint={sj!r} != S_1 + S_2 + (1-q) S_1 S_2")
            if q == 1 and abs(mi) > err_joint[r] + 2 * err_marginal[r] + OUT_REL * (s1 + s2):
                out.append(f"{where}: I={mi!r} for a product state")
    return out


PASS_CHECKS = (check_sign_symmetry, check_product_state)


def check_pass(calls: list[Call], tables: list[np.ndarray]) -> list[str]:
    """Every check on the parsed outputs of one pass."""
    out: list[str] = []
    for call, table in zip(calls, tables):
        for check in ROW_CHECKS:
            found = check(table, call)
            out += found
            if found and check is check_shape:
                break  # the other checks assume the grid's shape
    for check in PASS_CHECKS:
        out += check(calls, tables)
    return out
