"""Tests of tools/check_stats_scrape.py's catalog reader and scrape check.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_stats_scrape  # noqa: E402


class CatalogTest(unittest.TestCase):
    def test_reads_every_entry_of_kall_with_its_kind(self):
        catalog = check_stats_scrape.load_catalog()
        self.assertEqual(len(catalog), 28)
        kinds = dict(catalog)
        self.assertEqual(len(kinds), 28, "a name is listed twice")
        by_kind = {k: sorted(n for n, kk in catalog if kk == k)
                   for k in ("counter", "gauge", "histogram")}
        self.assertEqual(len(by_kind["counter"]), 21)
        self.assertEqual(by_kind["gauge"], [
            "keycache.resident_bytes", "server.queue_depth",
            "session.resident_tenants"])
        self.assertEqual(by_kind["histogram"], [
            "engine.item_ns", "keycache.regen_ns", "server.queue_wait_ns",
            "server.request_ns"])
        # Wrapped declarations (name on the next line) are read too.
        self.assertEqual(kinds["server.rejected_too_large"], "counter")
        self.assertEqual(kinds["keyswitch.decompositions"], "counter")
        self.assertEqual(catalog[0], ("server.accepted", "counter"))
        self.assertEqual(catalog[-1], ("failpoint.fires", "counter"))

    def test_entry_without_a_name_constant_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            header = Path(tmp) / "metrics.hpp"
            header.write_text(
                'inline constexpr const char* kA = "a.x";\n'
                "inline constexpr Entry kAll[] = {\n"
                "    {kA, Kind::kCounter},\n"
                "    {kB, Kind::kGauge},\n"
                "};\n")
            with self.assertRaises(ValueError):
                check_stats_scrape.load_catalog(header)


def scrape(catalog, drop=None):
    """A minimal passing scrape for @p catalog, without the name @p drop."""
    hist = {"count": 1, "sum": 5, "p50": 5, "p95": 5, "p99": 5,
            "buckets": [0, 0, 0, 1] + [0] * 44}
    doc = {
        "counters": {}, "gauges": {}, "histograms": {},
        "histogram_layout": {"buckets": 48,
                             "lower_bounds": [0] + [1 << i for i in range(47)]},
        "traces": {"slow_threshold_ns": 1, "slow_count": 0,
                   "recent": [{}], "slow": []},
    }
    for name, kind in catalog:
        if name == drop:
            continue
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}[kind]
        doc[section][name] = hist if kind == "histogram" else 1
    return doc


class ScrapeCheckTest(unittest.TestCase):
    def run_check(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stats.json"
            path.write_text(json.dumps(doc))
            return subprocess.run(
                [sys.executable, str(HERE / "check_stats_scrape.py"),
                 str(path)], capture_output=True, text=True)

    def test_full_scrape_passes_and_a_missing_metric_fails(self):
        catalog = check_stats_scrape.load_catalog()
        self.assertEqual(self.run_check(scrape(catalog)).returncode, 0)
        for name in ("keycache.resident_bytes", "engine.item_ns",
                     "failpoint.fires"):
            result = self.run_check(scrape(catalog, drop=name))
            self.assertEqual(result.returncode, 1, name)
            self.assertIn(name, result.stderr)


if __name__ == "__main__":
    unittest.main()
