"""Tests of tools/bench_compare.py.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_compare  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_lines(workload, metrics, correct=True, counts=None):
    """The two lines perfbench/run.py prints for one run."""
    run = {"run": {"workload": workload, "seed": 1, "trace": 0,
                   "env": {"kernel_arch": "avx512ifma", "nproc": 2},
                   "counts": counts or {"ckks.upload_bytes": 8650790},
                   "keycache_timed": {}}}
    result = {"correct": correct, "attempted": 100,
              "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "ms"}
                          for k, v in metrics.items()}}
    return json.dumps(run) + "\n" + json.dumps(result) + "\n"


BASE = {"req_p50_ms": 100.0, "req_p90_ms": 110.0, "throughput_rps": 10.0,
        "peak_rss_mb": 280.0, "ok_ratio": 1.0}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, text):
        path = Path(self.tmp.name) / name
        path.write_text(text)
        return str(path)

    def compare(self, base_text, new_text):
        base = self.write("base.json", base_text)
        new = self.write("new.json", new_text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = bench_compare.main(
                [base, new, "--benchmark", str(BENCHMARK)])
        return status, out.getvalue(), err.getvalue()

    def row(self, out, metric):
        return next(line for line in out.splitlines()
                    if line.split()[1:2] == [metric])

    def test_bounds_come_from_the_benchmark(self):
        bounds = bench_compare.load_bounds(BENCHMARK)
        self.assertEqual(bounds["req_p50_ms"], ("lower", 0.22))
        self.assertEqual(bounds["throughput_rps"], ("higher", 0.2))

    def test_flags_a_20_percent_req_p50_slowdown(self):
        slow = dict(BASE, req_p50_ms=120.0)
        status, out, _ = self.compare(run_lines("client_paper", BASE),
                                      run_lines("client_paper", slow))
        # 20% is inside req_p50_ms's 22% bound: flagged, not failed.
        self.assertIn("+20.0%", self.row(out, "req_p50_ms"))
        self.assertIn("slower", self.row(out, "req_p50_ms"))
        self.assertEqual(status, 0)

    def test_a_slowdown_past_the_bound_fails(self):
        slow = dict(BASE, req_p50_ms=125.0)
        status, out, err = self.compare(run_lines("client_paper", BASE),
                                        run_lines("client_paper", slow))
        self.assertIn("REGRESSION", self.row(out, "req_p50_ms"))
        self.assertIn("req_p50_ms", err)
        self.assertEqual(status, 1)

    def test_higher_is_better_metrics_regress_downwards(self):
        fewer = dict(BASE, throughput_rps=7.5)
        status, out, _ = self.compare(run_lines("served_churn", BASE),
                                      run_lines("served_churn", fewer))
        self.assertIn("REGRESSION", self.row(out, "throughput_rps"))
        self.assertEqual(status, 1)

    def test_a_faster_run_passes(self):
        fast = dict(BASE, req_p50_ms=60.0, req_p90_ms=70.0)
        status, out, _ = self.compare(run_lines("client_paper", BASE),
                                      run_lines("client_paper", fast))
        self.assertIn("better", self.row(out, "req_p50_ms"))
        self.assertEqual(status, 0)

    def test_an_incorrect_run_fails(self):
        status, _, err = self.compare(
            run_lines("client_paper", BASE),
            run_lines("client_paper", BASE, correct=False))
        self.assertIn("not correct", err)
        self.assertEqual(status, 1)

    def test_count_differences_are_reported(self):
        status, out, _ = self.compare(
            run_lines("client_paper", BASE),
            run_lines("client_paper", BASE, counts={"ckks.upload_bytes": 1}))
        self.assertIn("exact counts", out)
        self.assertEqual(status, 0)

    def test_workloads_are_matched_by_name(self):
        both = run_lines("client_paper", BASE) + run_lines(
            "served_churn", BASE)
        slow_churn = run_lines("client_paper", BASE) + run_lines(
            "served_churn", dict(BASE, req_p50_ms=200.0))
        status, _, err = self.compare(both, slow_churn)
        self.assertIn("served_churn: req_p50_ms", err)
        self.assertNotIn("client_paper", err)
        self.assertEqual(status, 1)
        status, _, err = self.compare(run_lines("client_paper", BASE),
                                      run_lines("served_churn", BASE))
        self.assertIn("no workload in common", err)
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()
