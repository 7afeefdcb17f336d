"""Benchmark workloads: seed -> the ``qubit-entropy`` calls of one pass.

Every workload is a fixed amount of work; the seed only moves values
(temperature range, entropic indices, circuits), never grid sizes or
the number of calls, so every pass of every seed does the same work.
Inputs come from ``random.Random(seed)``, which is stable across
Python versions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("fine-sweep", "deep-truncation", "circuit-scan")

FINE_T_STEPS = 1000
DEEP_T_STEPS = 20
DEEP_LEVELS_BIG = 20
SCAN_CIRCUITS = 40
SCAN_ZERO_G = 2
SCAN_T_STEPS = 6
SCAN_Q = (0.5, 1.0, 2.0)

# Largest |phi| a circuit-scan circuit may have.  The program warns at
# 0.3 and the benchmark treats any warning as a failed pass.
SCAN_MAX_PHI = 0.25


@dataclass(frozen=True)
class Call:
    """One ``qubit-entropy`` invocation and the inputs its checks need."""

    lam: float
    g: float
    t_min: float
    t_max: float
    t_steps: int
    t_scale: str
    q_values: tuple[float, ...]
    levels_small: int
    levels_big: int
    method: str
    output_format: str

    def argv(self, output: str) -> list[str]:
        return [
            "--lambda", repr(self.lam),
            "--g", repr(self.g),
            "--t-min", repr(self.t_min),
            "--t-max", repr(self.t_max),
            "--t-steps", str(self.t_steps),
            "--t-scale", self.t_scale,
            "--q", ",".join(repr(q) for q in self.q_values),
            "--levels-small", str(self.levels_small),
            "--levels-big", str(self.levels_big),
            "--method", self.method,
            "--format", self.output_format,
            "--output", output,
        ]


def _draw(rng: random.Random, low: float, high: float, digits: int = 4) -> float:
    # rounded so the value survives the argv round trip unchanged
    return round(rng.uniform(low, high), digits)


def _q_values(rng: random.Random) -> tuple[float, ...]:
    # five ascending indices with q = 1 among them; q >= 0.5 keeps the
    # rounding allowance of q < 1 entropies small (see checks.py)
    return (
        _draw(rng, 0.5, 0.7, 3),
        _draw(rng, 0.75, 0.95, 3),
        1.0,
        _draw(rng, 1.2, 1.8, 3),
        _draw(rng, 1.9, 3.0, 3),
    )


def _fine_sweep(rng: random.Random) -> list[Call]:
    return [
        Call(
            lam=1.5, g=0.1,
            t_min=_draw(rng, 0.01, 0.02), t_max=_draw(rng, 0.45, 0.55),
            t_steps=FINE_T_STEPS, t_scale="linear", q_values=_q_values(rng),
            levels_small=2, levels_big=6, method="closed-form",
            output_format="csv",
        )
    ]


def _deep_truncation(rng: random.Random) -> list[Call]:
    return [
        Call(
            lam=1.5, g=0.1,
            t_min=_draw(rng, 0.02, 0.05), t_max=_draw(rng, 0.4, 0.6),
            t_steps=DEEP_T_STEPS, t_scale="linear", q_values=_q_values(rng),
            levels_small=2, levels_big=DEEP_LEVELS_BIG, method="closed-form",
            output_format="csv",
        )
    ]


def _scan_lambda(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return _draw(rng, 0.4, 0.8)
    return _draw(rng, 1.25, 2.5)


def _circuit_scan(rng: random.Random) -> list[Call]:
    circuits: list[tuple[float, float]] = []
    for _ in range(SCAN_ZERO_G):
        circuits.append((_scan_lambda(rng), 0.0))
    while len(circuits) < SCAN_CIRCUITS:
        lam = _scan_lambda(rng)
        # small-angle phi = g*lam/(lam^2 - 1); bound |phi| by SCAN_MAX_PHI
        g_max = min(0.9, SCAN_MAX_PHI * abs(lam * lam - 1.0) / lam)
        g = _draw(rng, 0.02, g_max)
        circuits.extend([(lam, g), (lam, -g)])
    t_min, t_max = _draw(rng, 0.02, 0.05), _draw(rng, 0.5, 1.0)
    return [
        Call(
            lam=lam, g=g, t_min=t_min, t_max=t_max,
            t_steps=SCAN_T_STEPS, t_scale="log", q_values=SCAN_Q,
            levels_small=4, levels_big=8, method="quadrature",
            output_format="json",
        )
        for lam, g in circuits
    ]


def make_calls(workload: str, seed: int) -> list[Call]:
    """The calls one pass of ``workload`` makes, generated from ``seed``."""
    builders = {
        "fine-sweep": _fine_sweep,
        "deep-truncation": _deep_truncation,
        "circuit-scan": _circuit_scan,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](random.Random(seed))
