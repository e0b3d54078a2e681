#!/usr/bin/env python3
"""Self-test for scripts/bench_check.py: every gate fires.

Feeds hand-built bench_core and perfbench fig6_static results to
bench_check.py against a hand-built baseline and checks its exit status:
0 for clean results, 1 when one value breaks one gate, 2 for a missing
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


def core_row(events_per_sec):
    return {"events": 400064, "wall_sec": 400064 / events_per_sec,
            "events_per_sec": events_per_sec, "ns_per_event": 1e9 / events_per_sec,
            "allocs": 64, "allocs_per_event": 0.0002}


CORE = {
    "schema": "gcopss-bench-core-v3",
    "mode": "quick",
    "event_loop": {"loop": core_row(2.0e7), "far_timers": core_row(1.5e7)},
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
            "schema": "gcopss-bench-core-baseline-v3",
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

    def run_check(self, cores=(CORE,), fig6=FIG6, with_fig6=True):
        cmd = [sys.executable, SCRIPT, "--baseline", self.baseline, "--fresh"]
        cmd += [self.write(f"core{i}.json", core) for i, core in enumerate(cores)]
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
        for row, rate in (("loop", 2.0e7), ("far_timers", 1.5e7)):
            cases = {
                "events/sec under floor": (f"event_loop.{row}.events_per_sec", rate * 0.79),
                "allocs over bound": (f"event_loop.{row}.allocs", 400064),
            }
            for label, (path, value) in cases.items():
                with self.subTest(row=row, gate=label):
                    code, out = self.run_check(cores=[with_value(CORE, path, value)])
                    self.assertEqual(code, 1, out)
                    self.assertIn(f"event_loop {row}", out.split("FAIL:")[-1])

    def test_rate_gate_judges_the_median_of_several_runs(self):
        # Neither the first, the last, the fastest, the slowest nor the mean
        # run decides both cases the way the median does.
        slow = with_value(CORE, "event_loop.loop.events_per_sec", 2.0e7 * 0.3)
        code, out = self.run_check(cores=[slow, CORE, CORE, CORE, slow])
        self.assertEqual(code, 0, out)
        code, out = self.run_check(cores=[CORE, slow, slow, CORE, slow])
        self.assertEqual(code, 1, out)
        self.assertIn("event_loop loop (median of 5)", out.split("FAIL:")[-1])

    def test_allocations_are_checked_in_every_run(self):
        allocating = with_value(CORE, "event_loop.far_timers.allocs", 400064)
        code, out = self.run_check(cores=[CORE, CORE, allocating, CORE, CORE])
        self.assertEqual(code, 1, out)
        self.assertIn("event_loop far_timers allocates again in run 3", out.split("FAIL:")[-1])

    def test_missing_fig6_input_is_bad_input(self):
        code, out = self.run_check(with_fig6=False)
        self.assertEqual(code, 2, out)
        self.assertIn("--fig6-fresh", out)


if __name__ == "__main__":
    unittest.main()
