"""Benchmark of the qubit-entropy pipeline: one workload per invocation.

    python3 bench/run.py --workload fine-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics (``setup_s``, ``run_s``, ``peak_rss_mb``); with
``--trace 1`` it reports the per-layer metrics of a traced run.  Every
time is corrected for host speed drift with the reference kernel in
``calib.py``.  Full figures go to ``bench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy loads here, and inherited by every child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import calib  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT_DIR = BENCH / "out"

SETUP_SAMPLES = 15
# limits for a hung child: a probe takes about 0.2 s and a pass at most
# a few seconds, so a run with --seconds 20 ends within three minutes
SETUP_TIMEOUT_S = 5
WORKER_GRACE_S = 60

# (span name, reported fields) in the order they are printed
LAYER_SPANS = (
    ("cli.parse_config", ("self_s",)),
    ("cli.run_sweep", ("self_s",)),
    ("cli.emit", ("self_s",)),
    ("model.normal_modes", ("calls",)),
    ("hermite.ho_eigenfunction", ("calls", "self_s")),
    ("hermite.quad2d", ("calls", "self_s")),
    ("transform.build_transform", ("calls", "self_s")),
    ("transform.overlap_element_quadrature", ("calls",)),
    ("transform.overlap_element_closed", ("calls",)),
    ("state.thermal_density", ("calls", "self_s")),
    ("state.transform_density", ("calls", "self_s")),
    ("state.density_from_array", ("calls", "self_s")),
    ("state.partial_trace", ("calls", "self_s")),
    ("state.subspace_validity", ("calls", "self_s")),
    ("entropy.analyze_bipartite", ("calls", "self_s")),
    ("entropy.tsallis_entropy", ("calls", "self_s")),
    ("entropy.von_neumann_entropy", ("calls", "self_s")),
    ("linalg.eigh", ("calls", "self_s")),
    ("linalg.eigvalsh", ("calls", "self_s")),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def kernel_samples(count: int = 3) -> list[float]:
    return [calib.reference_kernel() for _ in range(count)]


def measure_setup(argv: list[str]) -> list[dict[str, float]]:
    """Fresh interpreter -> import qubit_entropy.cli -> parse_config, timed."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), *argv]
    samples = []
    # the first probe may compile bytecode; it is not kept
    for k in range(SETUP_SAMPLES + 1):
        refs = kernel_samples()
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            probe, env=child_env(), capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        refs += kernel_samples()
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        done, numpy_s, package_s, parse_s, where = proc.stdout.strip().split(maxsplit=4)
        if Path(ROOT / "src") not in Path(where).resolve().parents:
            raise BenchError(f"set-up probe imported qubit_entropy from {where}")
        factor = calib.correction(refs)
        if k:
            samples.append({
                "setup_s": (float(done) - spawned) * factor,
                "import_numpy_s": float(numpy_s) * factor,
                "import_qubit_entropy_s": float(package_s) * factor,
                "parse_config_s": float(parse_s) * factor,
                "ref_mean_s": statistics.fmean(refs),
            })
    return samples


def run_worker(args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(setup: list[dict], worker: dict) -> dict:
    timed = [p for p in worker["passes"] if p["timed"] and not p["traced"]]
    return {
        "setup_s": metric(median_of(setup, "setup_s"), "s"),
        "run_s": metric(median_of(timed, "corrected_s"), "s"),
        "peak_rss_mb": metric(worker["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(setup: list[dict], worker: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether its counts repeated."""
    summaries = worker["traced"]
    plain = [p for p in worker["passes"] if p["timed"] and not p["traced"]]
    traced = [p for p in worker["passes"] if p["traced"]]
    counts = [{name: s["calls"] for name, s in summary.items()} for summary in summaries]
    repeat = all(c == counts[0] for c in counts) and len(set(worker["eig_n3"])) == 1
    out = {}
    for name, fields in LAYER_SPANS:
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = metric(summaries[0].get(name, {}).get("calls", 0), "count")
            else:
                value = statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
                out[f"{name}.self_s"] = metric(value, "s")
        if name == "cli.emit":
            out["cli.emit.bytes"] = metric(plain[0]["emit_bytes"], "bytes")
            out["cli.rows"] = metric(plain[0]["rows"], "count")
    out["linalg.eig_n3"] = metric(worker["eig_n3"][0], "count")
    out["import.numpy_s"] = metric(median_of(setup, "import_numpy_s"), "s")
    out["import.qubit_entropy_s"] = metric(median_of(setup, "import_qubit_entropy_s"), "s")
    out["calib.ref_s"] = metric(median_of(worker["passes"], "ref_mean_s"), "s")
    out["run.raw_s"] = metric(median_of(plain, "raw_s"), "s")
    overhead = median_of(traced, "corrected_s") - median_of(plain, "corrected_s")
    out["trace.overhead_s"] = metric(overhead, "s")
    return out, repeat


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time of the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qubit_entropy" / "cli.py").is_file():
        print(f"bench: no qubit_entropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    first_call = workloads.make_calls(args.workload, args.seed)[0]
    try:
        setup = measure_setup(first_call.argv(os.devnull))
        worker = run_worker(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    passes = worker["passes"]
    failed = sum(not p["ok"] for p in passes)
    correct = failed == 0
    if args.trace:
        metrics, repeat = per_layer(setup, worker)
        correct = correct and repeat
    else:
        metrics = end_to_end(setup, worker)
    for problem in dict.fromkeys(worker["problems"]):
        print(f"bench: check failed: {problem}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"args": vars(args), "setup": setup, "worker": worker, "metrics": metrics}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
