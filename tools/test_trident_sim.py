#!/usr/bin/env python3
"""trident_sim rejects bad numeric flags with a usage error.

  python3 tools/test_trident_sim.py PATH/TO/trident_sim

Every invocation in BAD must exit 2 with an `error:` line on stderr, before
any machine is built (so quickly: a run that hangs or aborts fails). The
GOOD invocations are edge values that must stay valid.
"""

import subprocess
import sys
import unittest

SIM = None
TIMEOUT_S = 10

BAD = [
    ["--distance-cap", "0"],
    ["--distance-cap", "-3"],
    ["--distance-cap", "2147483648"],
    ["--warmup", "-1"],
    ["--instr", "abc"],
    ["--instr", ""],
    ["--instr", "12k"],
    ["--instr", "99999999999999999999"],
    ["--hwpf-feedback", "x"],
    ["--window", "0"],
    ["--window", "4294967296"],
    ["--miss-threshold", "300"],
    ["--dlt-entries", "0"],
    ["--dlt-entries", "3"],
    ["--trace-capacity", "0"],
]

GOOD = [
    ["--warmup", "0", "--hwpf-feedback", "0", "--distance-cap", "1"],
]


def run(args):
    return subprocess.run([SIM, "--workload", "mcf", "--instr", "2000"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)


class NumericFlags(unittest.TestCase):
    def test_bad_values_are_usage_errors(self):
        for args in BAD:
            with self.subTest(args=args):
                r = run(args)
                self.assertEqual(r.returncode, 2, r.stderr)
                self.assertIn("error:", r.stderr)

    def test_edge_values_stay_valid(self):
        for args in GOOD:
            with self.subTest(args=args):
                r = run(args)
                self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    SIM = sys.argv.pop(1)
    unittest.main()
