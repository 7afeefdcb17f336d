"""Benchmark worker: runs one workload's passes in a process of its own.

Started by ``run.py`` with OpenBLAS pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``.  Every pass calls
``qubit_entropy.cli.main(argv)`` once per call of the workload, writing
each report to a file, and is timed by ``calib.DriftMeter``.  After
the pass, outside the timed region, the reports are parsed and
checked.  With ``--trace 1`` untraced and traced passes alternate.  The last line of stdout is one JSON object with the
raw figures; ``run.py`` turns them into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import calib
import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def import_cli():
    """Import ``qubit_entropy.cli`` and insist it comes from this checkout."""
    import qubit_entropy.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"qubit_entropy was imported from {cli.__file__}, not from {src}")
    return cli


def run_pass(cli, argvs: list[list[str]]) -> list[object]:
    """One pass: every ``main(argv)`` call of the workload, in order."""
    codes: list[object] = []
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    return codes


def verify_pass(calls, paths: list[str], codes: list[object]) -> tuple[list[str], int, int]:
    """Check one pass's reports; return (problems, rows, bytes written)."""
    problems = [f"call {i} exited with {code!r}" for i, code in enumerate(codes) if code != 0]
    if problems:
        return problems, 0, 0
    tables = []
    try:
        for call, path in zip(calls, paths):
            tables.append(checks.parse_output(path, call.output_format))
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], 0, 0
    written = sum(os.path.getsize(p) for p in paths)
    return checks.check_pass(calls, tables), sum(t.shape[0] for t in tables), written


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    # a warning (small-angle regime, numpy floating-point trouble) fails the call
    warnings.simplefilter("error")
    cli = import_cli()
    calls = workloads.make_calls(args.workload, args.seed)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        paths = [str(tmp / f"call{i}.{c.output_format}") for i, c in enumerate(calls)]
        argvs = [c.argv(p) for c, p in zip(calls, paths)]
        passes: list[dict] = []
        problems: list[str] = []
        traced_summaries: list[dict] = []
        eig_n3: list[int] = []
        first_tracer = None
        meter = calib.DriftMeter()

        def one_pass(traced: bool, timed: bool) -> None:
            nonlocal first_tracer
            tracer = spans.Tracer(meter.clock) if traced else None
            with tracer if tracer else contextlib.nullcontext():
                codes, raw, refs = meter.run(lambda: run_pass(cli, argvs))
            found, rows, written = verify_pass(calls, paths, codes)
            problems.extend(found[:5])
            factor = calib.correction(refs, calib.ELASTICITY[args.workload])
            record = {
                "traced": traced, "timed": timed, "raw_s": raw, "corrected_s": raw * factor,
                "ref_mean_s": statistics.fmean(refs), "ref_samples": len(refs),
                "ok": not found, "rows": rows, "emit_bytes": written,
            }
            if tracer is not None:
                summary = spans.summarize(tracer)
                for entry in summary.values():
                    entry["self_s"] *= factor
                    entry["total_s"] *= factor
                traced_summaries.append(summary)
                eig_n3.append(tracer.eig_n3)
                if first_tracer is None:
                    first_tracer = tracer
            passes.append(record)

        # first pass fills lazy caches (quadrature nodes) and is not timed
        one_pass(traced=False, timed=False)
        deadline = time.perf_counter() + args.seconds
        while True:
            one_pass(traced=False, timed=True)
            if args.trace:
                one_pass(traced=True, timed=True)
            if time.perf_counter() >= deadline:
                break

        result = {
            "passes": passes,
            "problems": problems[:20],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if args.trace:
            result["traced"] = traced_summaries
            result["eig_n3"] = eig_n3
            write_spans(first_tracer, OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    """Write the spans of one traced pass: name index, start, end, parent."""
    names = sorted(set(tracer.names))
    index = {name: i for i, name in enumerate(names)}
    t0 = min(tracer.start, default=0.0)
    records = [
        [index[n], round(s - t0, 9), round(e - t0, 9), p]
        for n, s, e, p in zip(tracer.names, tracer.start, tracer.end, tracer.parent)
    ]
    path.write_text(json.dumps({"names": names, "spans": records}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
