#!/usr/bin/env python3
"""Self-test for the figure benches' JSONL output, on a tiny matrix.

  python3 tools/test_fig_jsonl.py path/to/fig9_hw_vs_sw path/to/fig10_selector

Runs the fig9 binary on one workload and one prefetcher at a tiny
instruction budget, twice: once writing its JSONL to a temporary file,
which must succeed with one record per cell, and once to /dev/full, where
every write fails, which must exit 1 and name the path. Then runs fig10
with a bandit spec that does not parse, which must exit 2 with the
parser's message before it writes any JSONL.
"""

import os
import subprocess
import sys
import tempfile
import unittest

FIG9 = None
FIG10 = None

TINY = {"TRIDENT_BENCH_INSTR": "2000", "TRIDENT_BENCH_JOBS": "1",
        "TRIDENT_FIG9_WORKLOADS": "swim", "TRIDENT_FIG9_HWPF": "sb4x4"}


def run_fig9(out_path):
    env = dict(os.environ, **TINY, TRIDENT_FIG9_OUT=out_path)
    env.pop("TRIDENT_BENCH_QUICK", None)
    return subprocess.run([FIG9], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


class Fig9Jsonl(unittest.TestCase):
    def test_writes_one_record_per_cell(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "fig9.jsonl")
            r = run_fig9(path)
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(path) as f:
                lines = f.read().splitlines()
        # none and sb4x4, each with Trident off and on.
        self.assertEqual(len(lines), 4, lines)
        self.assertTrue(all(l.startswith('{"workload":"swim"')
                            for l in lines), lines)

    def test_a_failed_write_exits_1_and_names_the_path(self):
        r = run_fig9("/dev/full")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("error: cannot write '/dev/full'", r.stderr)


class Fig10BadBandit(unittest.TestCase):
    def test_a_bad_bandit_spec_exits_2_before_any_run(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "fig10.jsonl")
            env = dict(os.environ, TRIDENT_BENCH_INSTR="2000",
                       TRIDENT_BENCH_JOBS="1", TRIDENT_FIG10_WORKLOADS="mcf",
                       TRIDENT_FIG10_BANDIT="bandit:bogus=1",
                       TRIDENT_FIG10_OUT=path)
            r = subprocess.run([FIG10], env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=60)
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
            self.assertIn("unknown knob 'bogus' for selector policy "
                          "'bandit'", r.stderr)
            self.assertFalse(os.path.exists(path))


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: tools/test_fig_jsonl.py FIG9_BINARY FIG10_BINARY")
    FIG9 = sys.argv.pop(1)
    FIG10 = sys.argv.pop(1)
    unittest.main()
