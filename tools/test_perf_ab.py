#!/usr/bin/env python3
"""Self-test for the verdict of tools/perf_ab.py, on synthetic samples.

  python3 tools/test_perf_ab.py

No build and no benchmark run: each case feeds made-up run.py results for
one workload to perf_ab.verdict and checks the pass/fail call.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "sim_ips", "better": "higher", "bound": 0.25},
]}


def result(wall_s, sim_ips, failed=0):
    return {"correct": failed == 0, "attempted": 56, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "sim_ips": {"value": sim_ips, "unit": "instr/s"}}}


def runs(wall_scale=1.0, ips_scale=1.0):
    """Ten runs with a small, steady spread around wall_s 10, sim_ips 1e7."""
    return [result(wall_scale * (10 + 0.1 * i), ips_scale * (1e7 - 1e4 * i))
            for i in range(10)]


def judge(base, head):
    return perf_ab.verdict(SPEC, {"sweep-long": {"base": base,
                                                 "head": head}})


class Verdict(unittest.TestCase):
    def test_wall_time_rise_fails_beyond_the_bound_only(self):
        self.assertFalse(judge(runs(), runs(wall_scale=1.3))[1])
        lines, passed = judge(runs(), runs(wall_scale=1.1))
        self.assertTrue(passed, lines)
        self.assertFalse(any("unresolved" in l for l in lines), lines)

    def test_throughput_drop_fails_because_higher_is_better(self):
        self.assertFalse(judge(runs(), runs(ips_scale=0.7))[1])
        self.assertTrue(judge(runs(), runs(ips_scale=1.3))[1])

    def test_one_failed_job_fails(self):
        head = runs()
        head[3] = result(10, 1e7, failed=1)
        lines, passed = judge(runs(), head)
        self.assertFalse(passed)
        self.assertIn("sweep-long head: 1 of 10 runs failed", lines)
        self.assertFalse(judge(runs(), runs()[:9] + [None])[1])

    def test_wide_base_spread_reads_unresolved(self):
        base = [result(10 if i % 2 else 20, 1e7) for i in range(10)]
        lines, passed = judge(base, base)
        self.assertTrue(passed, lines)
        wall = [l for l in lines if "wall_s" in l]
        self.assertTrue(wall and wall[0].endswith("unresolved"), lines)


def line_of(lines, metric):
    found = [l for l in lines if " %s " % metric in l]
    assert len(found) == 1, lines
    return found[0]


class GainRule(unittest.TestCase):
    def test_ten_of_ten_wins_read_gain(self):
        lines, passed = judge(runs(), runs(wall_scale=0.8))
        self.assertTrue(passed, lines)
        wall = line_of(lines, "wall_s")
        self.assertIn(" won 10/10 gain ok", wall)

    def test_eight_of_ten_wins_are_no_gain(self):
        head = runs(wall_scale=0.8)
        head[0] = result(11, 1e7)
        head[9] = result(11, 1e7)
        wall = line_of(judge(runs(), head)[0], "wall_s")
        self.assertIn(" won 8/10 ok", wall)
        self.assertNotIn("gain", wall)

    def test_ties_count_for_neither_side(self):
        base, head = runs(), runs(wall_scale=0.8)
        head[0], head[9] = base[0], base[9]
        wall = line_of(judge(base, head)[0], "wall_s")
        self.assertIn(" won 8/10 ok", wall)
        self.assertNotIn("gain", wall)
        ips = line_of(judge(base, base)[0], "sim_ips")
        self.assertIn(" won 0/10 ok", ips)

    def test_a_failed_run_forfeits_its_pair(self):
        head = runs(wall_scale=0.8)
        head[3] = result(1, 1e7, failed=1)
        wall = line_of(judge(runs(), head)[0], "wall_s")
        self.assertIn(" won 9/10 gain ok", wall)
        base = runs()
        base[3] = None
        wall = line_of(judge(base, runs(wall_scale=0.8))[0], "wall_s")
        self.assertIn(" won 10/10 ", wall)

    def test_a_median_gain_within_the_base_spread_is_no_gain(self):
        lines = judge(runs(), runs(wall_scale=0.99))[0]
        wall = line_of(lines, "wall_s")
        self.assertIn(" won 10/10 ok", wall)


if __name__ == "__main__":
    unittest.main()
