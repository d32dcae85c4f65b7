#!/usr/bin/env python3
"""Self-test for the figures program (Figures 2-8 and the ablations), at a
tiny instruction budget.

  python3 tools/test_figures.py path/to/figures

Runs the program once and checks that it exits 0, prints the eight figure
headers in order with one event_health line each, and ends with the
trailer that counts 493 results read from 339 simulations: a cell that
several figures read simulates once.
"""

import json
import os
import subprocess
import sys
import unittest

FIGURES = None

HEADERS = ["Figure 2:", "Figure 3 / Section 5.1:", "Figure 4:", "Figure 5:",
           "Figure 6:", "Figure 7:", "Figure 8:", "Ablations:"]
RUNS = [42, 56, 14, 56, 14, 182, 84, 45]


class Figures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        env = dict(os.environ, TRIDENT_BENCH_INSTR="2000",
                   TRIDENT_BENCH_JOBS="2")
        env.pop("TRIDENT_BENCH_QUICK", None)
        cls.result = subprocess.run([FIGURES], env=env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    timeout=600)
        cls.lines = cls.result.stdout.splitlines()

    def test_exits_0(self):
        self.assertEqual(self.result.returncode, 0, self.result.stderr)

    def test_prints_the_eight_headers_in_order(self):
        found = [h for l in self.lines for h in HEADERS if l.startswith(h)]
        self.assertEqual(found, HEADERS)

    def test_one_event_health_line_per_figure(self):
        runs = [json.loads(l)["event_health"]["runs"] for l in self.lines
                if l.startswith('{"event_health"')]
        self.assertEqual(runs, RUNS)

    def test_the_trailer_counts_each_shared_cell_once(self):
        self.assertEqual(json.loads(self.lines[-1]),
                         {"figures": {"results": 493, "simulations": 339}})


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: tools/test_figures.py FIGURES_BINARY")
    FIGURES = sys.argv.pop(1)
    unittest.main()
