#!/usr/bin/env python3
"""Compares two benchmark results workload by workload.

    python3 tools/bench_compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW each hold the output of one or more `perfbench/run.py` runs:
the "run" line (workload, environment, exact counts) followed by the
result line, one JSON document per line, as run.py prints them. The
committed baselines under bench/baseline/ are such files:

    python3 perfbench/run.py --workload client_paper --seed 1 \\
        --seconds 45 --trace 0 > bench/baseline/client_paper.json

For every workload in both files, each metric of the result line is
compared. A metric BENCHMARK.json lists with a bound is judged by the
benchmark's own rule: worse than BASE by more than `bound` (a fraction of
the BASE value, in the direction `better` says) is a REGRESSION; worse
within the bound is flagged "slower"; anything else is "ok" or "better".
Metrics without a bound (the per-layer medians of a --trace 1 run) are
listed with their change only. Differences in the exact counts or the
environment of the run lines are reported, since they mean the two runs
did not do the same work or did not run on the same tier.

Exit status: 1 if any metric regressed, a result line is not correct, or
the files share no workload; 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path):
    """{workload: (run_line, result_line)} from run.py output; the last run
    of a workload wins."""
    runs = {}
    current = None
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        doc = json.loads(line)
        if "run" in doc:
            current = doc["run"]
        elif "metrics" in doc:
            if current is None:
                raise ValueError(f"{path}:{number}: result line before any "
                                 f"run line")
            runs[current["workload"]] = (current, doc)
            current = None
    return runs


def load_bounds(benchmark_path):
    """{metric: (better, bound)} for the metrics BENCHMARK.json bounds."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: (m["better"], float(m["bound"]))
            for m in spec["end_to_end"] if "bound" in m}


def verdict(better, bound, base, new):
    """The benchmark's rule for one bounded metric."""
    if base == new:
        return "ok"
    worse = new > base if better == "lower" else new < base
    if not worse:
        return "better"
    limit = base * (1 + bound) if better == "lower" else base * (1 - bound)
    beyond = new > limit if better == "lower" else new < limit
    return "REGRESSION" if beyond else "slower"


def compare(base_runs, new_runs, bounds):
    """Rows and failures for every workload both sides ran."""
    rows, failures = [], []
    shared = sorted(set(base_runs) & set(new_runs))
    if not shared:
        failures.append("no workload in common")
    for workload in shared:
        base_run, base_res = base_runs[workload]
        new_run, new_res = new_runs[workload]
        for side, res in (("base", base_res), ("new", new_res)):
            if not res.get("correct", False):
                failures.append(f"{workload}: {side} run is not correct")
        if base_run.get("counts") != new_run.get("counts"):
            rows.append((workload, "exact counts", "differ", "", "", ""))
        if base_run.get("env") != new_run.get("env"):
            rows.append((workload, "environment", "differs", "", "", ""))
        base_m = base_res["metrics"]
        new_m = new_res["metrics"]
        for name in [n for n in base_m if n in new_m]:
            b = base_m[name]["value"]
            n = new_m[name]["value"]
            change = f"{(n - b) / b:+.1%}" if b else ""
            if name in bounds:
                better, bound = bounds[name]
                v = verdict(better, bound, b, n)
                if v == "REGRESSION":
                    failures.append(f"{workload}: {name} {b:.6g} -> {n:.6g} "
                                    f"({change}, bound {bound:.0%})")
                rows.append((workload, name, f"{b:.6g}", f"{n:.6g}", change,
                             f"{v} (bound {bound:.0%})"))
            else:
                rows.append((workload, name, f"{b:.6g}", f"{n:.6g}", change,
                             ""))
    return rows, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)

    rows, failures = compare(load_runs(args.base), load_runs(args.new),
                             load_bounds(args.benchmark))
    header = ("workload", "metric", "base", "new", "change", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths))
              .rstrip())
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
