#!/usr/bin/env python3
"""Fixture self-test for tools/trident_analyze.py.

Each directory under tests/lint_fixtures/<rule>/<positive|negative>/ is a
miniature repo root (its own src/, optionally its own tools/layering.json)
plus an expected.txt listing the findings the engine must produce there,
one per line, as:

    <rule-id> <repo-relative-path>

(an empty or absent expected.txt means the fixture must analyze clean).
The runner executes the engine with --root <case> and compares
the *set* of (rule, file) pairs — line numbers and message wording are
free to evolve; the rule firing (or staying silent) is the contract.

Positive fixtures prove a rule still fires; negative fixtures prove its
suppressions (annotations, sort-sinks, config-indirected bounds, allowed
layering edges) still hold. ctest runs this as analyze_fixture_test.

The engine is imported once and every case, and the rule listing, runs in
this process through trident_analyze.main(argv) with its output captured.
A case whose run raises, or exits (argparse calls sys.exit), fails as that
case.

Exit: 0 when every case matches, 1 otherwise (with a per-case diff).
"""

import contextlib
import io
import re
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import trident_analyze  # noqa: E402

FINDING = re.compile(r"^(?P<rel>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\] ")


def run_engine(argv: list) -> tuple:
    """Runs the engine on argv in this process. Returns (rc, stdout, crash),
    where crash describes a raise or an exit and rc is then None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = trident_analyze.main(argv)
    except SystemExit as e:
        return None, out.getvalue(), f"exited ({e.code}): {err.getvalue()}"
    except Exception:  # noqa: BLE001 - any raise fails the case
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), ""


def run_case(case: Path) -> list:
    """Returns a list of mismatch strings (empty = pass)."""
    expected = set()
    exp_file = case / "expected.txt"
    if exp_file.is_file():
        for raw in exp_file.read_text().splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            rule, rel = raw.split()
            expected.add((rule, rel))
    rc, stdout, crash = run_engine(["--root", str(case)])
    if crash:
        return [f"engine crashed: {crash.strip()[-400:]}"]
    actual = set()
    for line in stdout.splitlines():
        m = FINDING.match(line)
        if m:
            actual.add((m.group("rule"), m.group("rel")))
    errors = []
    for miss in sorted(expected - actual):
        errors.append(f"expected finding did not fire: [{miss[0]}] {miss[1]}")
    for extra in sorted(actual - expected):
        errors.append(f"unexpected finding: [{extra[0]}] {extra[1]}")
    want_rc = 1 if expected else 0
    if not errors and rc != want_rc:
        errors.append(f"exit code {rc}, expected {want_rc}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    corpus = root / "tests" / "lint_fixtures"
    cases = sorted(p for p in corpus.glob("*/*") if p.is_dir())
    if not cases:
        print(f"no fixture cases under {corpus}", file=sys.stderr)
        return 1
    failed = 0
    for case in cases:
        errors = run_case(case)
        tag = case.relative_to(corpus)
        if errors:
            failed += 1
            print(f"FAIL {tag}")
            for e in errors:
                print(f"     {e}")
        else:
            print(f"ok   {tag}")
    # Every rule the engine ships must have at least one positive and one
    # negative fixture — a new rule without coverage fails the suite.
    rc, rules, crash = run_engine(["--list-rules"])
    if crash or rc != 0:
        failed += 1
        print(f"FAIL --list-rules: rc={rc} {crash.strip()[-400:]}")
    for line in rules.splitlines():
        rid = line.split()[0]
        for kind in ("positive", "negative"):
            if not (corpus / rid / kind).is_dir():
                failed += 1
                print(f"FAIL {rid}: missing {kind} fixture directory")
    if failed:
        print(f"{failed} fixture case(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(cases)} fixture cases passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
