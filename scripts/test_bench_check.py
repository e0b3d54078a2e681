#!/usr/bin/env python3
"""Self-test for scripts/bench_check.py: every gate fires.

Feeds hand-built bench_core and perfbench fig6_static results to
bench_check.py against a hand-built baseline and checks its exit status:
0 for a clean pair, 1 when one value breaks one gate, 2 for a missing
required input. Needs nothing but python3:

    python3 scripts/test_bench_check.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_check.py")
sys.path.insert(0, HERE)
import bench_check  # noqa: E402  (the bounds under test)

CORE = {
    "schema": "gcopss-bench-core-v2",
    "mode": "quick",
    "event_loop": {"loop": {"events": 400064, "wall_sec": 0.02, "events_per_sec": 2.0e7,
                            "ns_per_event": 50.0, "allocs": 64, "allocs_per_event": 0.0002}},
}


def metric(value, unit):
    return {"value": value, "unit": unit}


FIG6 = {
    "correct": True,
    "attempted": 626334,
    "failed": 0,
    "metrics": {
        "deliveries_per_s": metric(900000.0, "1/s"),
        "peak_rss_mb": metric(47.8, "MB"),
        "allocs_per_delivery": metric(0.188, "count"),
        "delivery_ratio": metric(1.0, "ratio"),
    },
}


def with_value(base, path, value):
    """A deep copy of `base` with the dotted `path` set to `value`."""
    out = copy.deepcopy(base)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


class BenchCheckGates(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", {
            "schema": "gcopss-bench-core-baseline-v2",
            "quick_reference": CORE,
            "fig6_static_reference": FIG6,
        })

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_check(self, core=CORE, fig6=FIG6, with_fig6=True):
        cmd = [sys.executable, SCRIPT, "--baseline", self.baseline,
               "--fresh", self.write("core.json", core)]
        if with_fig6:
            cmd += ["--fig6-fresh", self.write("fig6.json", fig6)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return done.returncode, done.stdout

    def test_clean_results_pass(self):
        code, out = self.run_check()
        self.assertEqual(code, 0, out)

    def test_each_fig6_gate_fires(self):
        cases = {
            "not correct": ("correct", False),
            "a failed delivery": ("failed", 1),
            "no entitled delivery": ("attempted", 0),
            "allocs over bound": ("metrics.allocs_per_delivery.value",
                                  bench_check.MAX_FIG6_ALLOCS_PER_DELIVERY + 0.01),
            "RSS over bound": ("metrics.peak_rss_mb.value",
                               bench_check.MAX_FIG6_PEAK_RSS_MB + 1),
            "deliveries/s under floor": ("metrics.deliveries_per_s.value", 900000.0 * 0.79),
        }
        for label, (path, value) in cases.items():
            with self.subTest(label):
                code, out = self.run_check(fig6=with_value(FIG6, path, value))
                self.assertEqual(code, 1, out)
                self.assertIn("fig6_static", out.split("FAIL:")[-1])

    def test_each_event_loop_gate_fires(self):
        cases = {
            "events/sec under floor": ("event_loop.loop.events_per_sec", 2.0e7 * 0.79),
            "allocs over bound": ("event_loop.loop.allocs", 400064),
        }
        for label, (path, value) in cases.items():
            with self.subTest(label):
                code, out = self.run_check(core=with_value(CORE, path, value))
                self.assertEqual(code, 1, out)
                self.assertIn("event", out.split("FAIL:")[-1])

    def test_missing_fig6_input_is_bad_input(self):
        code, out = self.run_check(with_fig6=False)
        self.assertEqual(code, 2, out)
        self.assertIn("--fig6-fresh", out)


if __name__ == "__main__":
    unittest.main()
