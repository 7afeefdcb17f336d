"""Tests of the benchmark itself: output checks, span accounting, drift meter.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import COL  # noqa: E402
from workloads import Call  # noqa: E402

import qubit_entropy.cli as cli  # noqa: E402

SWEEP = Call(
    lam=1.5, g=0.1, t_min=0.02, t_max=0.5, t_steps=6, t_scale="linear",
    q_values=(0.6, 0.9, 1.0, 1.5, 2.5), levels_small=2, levels_big=4,
    method="closed-form", output_format="csv",
)
SCAN = [
    Call(
        lam=lam, g=g, t_min=0.03, t_max=0.8, t_steps=4, t_scale="log",
        q_values=(0.5, 1.0, 2.0), levels_small=3, levels_big=5,
        method="quadrature", output_format="json",
    )
    for lam, g in ((1.6, 0.0), (0.6, 0.05), (0.6, -0.05))
]


def produce(call: Call, tmp_path: Path) -> np.ndarray:
    path = tmp_path / f"out-{abs(hash(call))}.{call.output_format}"
    assert cli.main(call.argv(str(path))) == 0
    return checks.parse_output(str(path), call.output_format)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory) -> np.ndarray:
    return produce(SWEEP, tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def scan(tmp_path_factory) -> list[np.ndarray]:
    tmp = tmp_path_factory.mktemp("scan")
    return [produce(call, tmp) for call in SCAN]


def row(table: np.ndarray, q: float, index: int = 2) -> int:
    """Row number of the ``index``-th temperature at entropic index q."""
    return int(np.flatnonzero(table[:, COL["q"]] == q)[index])


def test_genuine_outputs_pass_every_check(sweep, scan):
    assert checks.check_pass([SWEEP], [sweep]) == []
    assert checks.check_pass(SCAN, scan) == []


def _corrupt_shape(t):
    return t[:-1]


def _corrupt_finite(t):
    t[3, COL["mu_II"]] = np.nan
    return t


def _corrupt_grid(t):
    t[7, COL["T"]] *= 1 + 1e-7
    return t


def _corrupt_margin(t):
    t[4, COL["margin"]] += 1e-9
    return t


def _corrupt_mutual_info(t):
    t[4, COL["I"]] += 1e-7
    t[4, COL["margin"]] = t[4, COL["I"]]
    return t


def _corrupt_entropy_high(t):
    t[row(t, 1.0), COL["S_1"]] = math.log(2) * (1 + 1e-6)
    return t


def _corrupt_entropy_negative(t):
    t[row(t, 2.5), COL["S_joint"]] = -1e-8
    return t


def _corrupt_negative_info(t):
    t[row(t, 1.0), COL["I"]] = -1e-8
    return t


def _corrupt_araki_lieb(t):
    r = row(t, 1.0)
    t[r, COL["S_1"]] = t[r, COL["S_2"]] + 0.1
    t[r, COL["S_joint"]] = 0.05
    return t


def _corrupt_monotone(t):
    t[row(t, 1.5), COL["S_2"]] = t[row(t, 0.9), COL["S_2"]] + 1e-6
    return t


def _corrupt_purity_low(t):
    t[5, COL["mu_I"]] = 0.25 * (1 - 1e-8)
    return t


def _corrupt_purity_high(t):
    t[5, COL["mu_I"]] = 1 + 1e-8
    return t


@pytest.mark.parametrize(
    "check, corrupt",
    [
        (checks.check_shape, _corrupt_shape),
        (checks.check_finite, _corrupt_finite),
        (checks.check_grid, _corrupt_grid),
        (checks.check_mutual_info, _corrupt_margin),
        (checks.check_mutual_info, _corrupt_mutual_info),
        (checks.check_entropy_bounds, _corrupt_entropy_high),
        (checks.check_entropy_bounds, _corrupt_entropy_negative),
        (checks.check_q1_inequalities, _corrupt_negative_info),
        (checks.check_q1_inequalities, _corrupt_araki_lieb),
        (checks.check_monotone_in_q, _corrupt_monotone),
        (checks.check_purity_range, _corrupt_purity_low),
        (checks.check_purity_range, _corrupt_purity_high),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_row_check_rejects_corrupted_row(sweep, check, corrupt):
    assert check(sweep, SWEEP) == []
    assert check(corrupt(sweep.copy()), SWEEP) != []


@pytest.mark.parametrize("column", ["S_joint", "S_1", "I", "mu_I", "offdiag_sum"])
def test_sign_symmetry_rejects_corrupted_row(scan, column):
    assert checks.check_sign_symmetry(SCAN, scan) == []
    bad = [t.copy() for t in scan]
    bad[2][row(bad[2], 1.0, 1), COL[column]] += 1e-7
    assert checks.check_sign_symmetry(SCAN, bad) != []


@pytest.mark.parametrize(
    "column, q, shift",
    # q = 0.5 carries the loosest rounding allowance (see checks.py)
    [("S_1", 1.0, 1e-8), ("S_2", 2.0, 1e-8), ("S_joint", 2.0, 1e-8), ("S_joint", 0.5, 1e-4), ("I", 1.0, 1e-8)],
)
def test_product_state_rejects_corrupted_row(scan, column, q, shift):
    assert checks.check_product_state(SCAN, scan) == []
    bad = [t.copy() for t in scan]
    bad[0][row(bad[0], q, 1), COL[column]] += shift
    assert checks.check_product_state(SCAN, bad) != []


def test_parse_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\nT,q,S_joint\n0.1,1,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        checks.parse_output(str(path), "csv")


def test_span_self_times_sum_to_root_durations(tmp_path):
    originals = (np.linalg.eigh, cli.build_transform, cli.main)
    tracer = spans.Tracer()
    with tracer:
        assert cli.build_transform is not originals[1]
        assert cli.main(SWEEP.argv(str(tmp_path / "traced.csv"))) == 0
    assert (np.linalg.eigh, cli.build_transform, cli.main) == originals
    summary = spans.summarize(tracer)
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0]
    assert [tracer.names[i] for i, p in enumerate(tracer.parent) if p < 0] == ["cli.main"]
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
    # every child lies inside its parent, so no self time is negative
    assert all(entry["self_s"] >= -1e-9 for entry in summary.values())
    assert summary["state.subspace_validity"]["calls"] == SWEEP.t_steps
    assert summary["transform.build_transform"]["calls"] == 2
    assert tracer.eig_n3 > 0


def test_span_self_time_excludes_children_exactly():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: (inner(), inner()))
    outer()
    summary = spans.summarize(tracer)
    # outer: 0 -> 5 with children 1 -> 2 and 3 -> 4
    assert summary["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_traced_output_matches_untraced(tmp_path):
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.main(SWEEP.argv(str(plain))) == 0
    with spans.Tracer():
        assert cli.main(SWEEP.argv(str(traced))) == 0
    assert plain.read_bytes() == traced.read_bytes()


def test_missing_function_reports_zero_calls():
    summary = {"cli.main": {"calls": 1, "total_s": 1.0, "self_s": 1.0}}
    worker = {
        "traced": [summary, summary],
        "eig_n3": [5, 5],
        "passes": [
            {"timed": True, "traced": False, "raw_s": 1.0, "corrected_s": 1.0,
             "ref_mean_s": 0.01, "rows": 10, "emit_bytes": 100},
            {"timed": True, "traced": True, "raw_s": 1.2, "corrected_s": 1.2,
             "ref_mean_s": 0.01, "rows": 10, "emit_bytes": 100},
        ],
    }
    setup = [{"import_numpy_s": 0.1, "import_qubit_entropy_s": 0.02}]
    metrics, repeat = run.per_layer(setup, worker)
    assert repeat
    assert metrics["transform.build_transform.calls"]["value"] == 0
    assert metrics["transform.build_transform.self_s"]["value"] == 0.0
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.2)


def test_drift_meter_excludes_its_samples():
    meter = calib.DriftMeter(interval=0.05)

    def busy() -> int:
        end = time.perf_counter() + 0.3
        n = 0
        while time.perf_counter() < end:
            n += 1
        return n

    wall = time.perf_counter()
    _, elapsed, samples = meter.run(busy)
    wall = time.perf_counter() - wall
    assert len(samples) >= 4  # before, at least two inside, after
    inside = sum(samples[1:-1])
    assert elapsed < 0.3 + 0.02
    assert wall >= elapsed + inside


def test_workloads_are_seeded_and_fixed_size():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.make_calls(name, s) for s in (1, 1, 2))
        assert a == b and a != c
        assert [(x.t_steps, len(x.q_values), x.levels_big) for x in a] == [
            (x.t_steps, len(x.q_values), x.levels_big) for x in c
        ]
        assert all(1.0 in x.q_values for x in a)


def test_circuit_scan_circuits():
    calls = workloads.make_calls("circuit-scan", 7)
    assert len(calls) == workloads.SCAN_CIRCUITS
    keys = {(c.lam, c.g) for c in calls}
    assert sum(c.g == 0 for c in calls) == workloads.SCAN_ZERO_G
    assert all((c.lam, -c.g) in keys for c in calls)
    for c in calls:
        assert c.lam != 1 and abs(c.g * c.lam / (c.lam**2 - 1)) < 0.3


def test_short_report_is_rejected_not_raised(sweep, scan):
    assert checks.check_pass([SWEEP], [sweep[:-1]]) != []
    assert checks.check_pass(SCAN, [scan[0], scan[1], scan[2][:-3]]) != []
