"""Re-derive the drift-correction constants from untraced benchmark results.

    python3 bench/fit_calib.py bench/out/result-*-trace0.json

Prints, per workload, the median reference-kernel time over all passes
and the elasticity: the slope of log(raw pass time) on log(kernel time)
within each run, pooled over the runs given.  These are the values
recorded as ``REF_NOMINAL_S`` and ``ELASTICITY`` in ``calib.py``; change
them only together with a fresh baseline.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict


def main(paths: list[str]) -> int:
    runs: dict[str, list[list[tuple[float, float]]]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        passes = [p for p in result["worker"]["passes"] if p["timed"] and not p["traced"]]
        points = [(math.log(p["ref_mean_s"]), math.log(p["raw_s"])) for p in passes]
        runs[result["args"]["workload"]].append(points)
    for workload, groups in sorted(runs.items()):
        num = den = 0.0
        for points in groups:
            mx = statistics.fmean(x for x, _ in points)
            my = statistics.fmean(y for _, y in points)
            num += sum((x - mx) * (y - my) for x, y in points)
            den += sum((x - mx) ** 2 for x, _ in points)
        kernel = statistics.median(math.exp(x) for points in groups for x, _ in points)
        slope = num / den if den > 0 else float("nan")
        print(f"{workload}: runs={len(groups)} kernel_median_s={kernel:.6f} elasticity={slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
