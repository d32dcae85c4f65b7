#!/usr/bin/env python3
"""perf_ab: same-host A/B of the repository benchmark against a base commit.

  python3 tools/perf_ab.py BASE

Unpacks BASE (any git revision) into a temporary directory and runs
`perfbench/run.py --workload W --seconds 5 --trace 0` there and in this
checkout, alternating which goes first, for PAIRS pairs and every workload
of this checkout's BENCHMARK.json that BASE also defines. Each checkout
builds its own perfbench_driver. Every run is printed.

Exits 1 when a run printed no result or failed jobs, or when a median
end-to-end metric is worse than BASE's by more than its BENCHMARK.json
bound. `unresolved` marks a metric whose BASE quartile spread exceeds the
bound; that alone does not fail. Each metric's line also says how many
pairs the head won (a tie counts for neither side, a failed run forfeits
its pair) and reads `gain` when the head won at least 9 in 10 pairs and
its median is better than BASE's by more than BASE's quartile distance.
This is a no-regression gate: a gain claim needs ten or more pairs at the
benchmark's own run length.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
# perfbench's two-repeat minimum; at the benchmark's own 50 s, ten pairs
# of every workload would take over half an hour.
SECONDS = 5


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {"workloads": []}
    with open(path) as f:
        return json.load(f)


def good(result):
    return bool(result and result["correct"] and result["failed"] == 0)


def run_once(root, workload):
    """One benchmark run in checkout `root`: run.py's result, or None."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds its own binary
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seconds", str(SECONDS), "--trace", "0"],
                       cwd=root, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not good(result):
        print(r.stderr[-2000:], file=sys.stderr)
    return result


def describe(result):
    if result is None:
        return "no result"
    metrics = " ".join("%s %.6g" % (name, m["value"])
                       for name, m in result["metrics"].items())
    return "%s failed %d" % (metrics, result["failed"])


def quartile_distance(values):
    """Interquartile range, in the metric's own unit."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values):
    """Interquartile range over the median, as perfbench --steadiness."""
    if len(values) < 2:
        return 0.0
    return quartile_distance(values) / statistics.median(values)


def head_wins(metric, base_runs, head_runs):
    """Pairs the head won on `metric`, and the number of pairs. Pair i is
    the i-th run of each side; a tie counts for neither side, and a failed
    run forfeits its pair."""
    won = 0
    for b, h in zip(base_runs, head_runs):
        if not good(h):
            continue
        if not good(b):
            won += 1
            continue
        bv = b["metrics"][metric["name"]]["value"]
        hv = h["metrics"][metric["name"]]["value"]
        won += hv < bv if metric["better"] == "lower" else hv > bv
    return won, min(len(base_runs), len(head_runs))


def verdict(spec, samples):
    """Judges collected runs: `samples[workload]["base"|"head"]` lists
    run.py results (None for a run that printed none). Returns the report
    lines and whether the head passes."""
    lines, passed = [], True
    for w, sides in samples.items():
        for side, runs in sides.items():
            bad = sum(not good(r) for r in runs)
            if bad:
                passed = False
                lines.append("%s %s: %d of %d runs failed"
                             % (w, side, bad, len(runs)))
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"]
                           for r in runs if good(r)]
                    for side, runs in sides.items()}
            if not vals["base"] or not vals["head"]:
                continue
            base = statistics.median(vals["base"])
            head = statistics.median(vals["head"])
            change = (head - base) / base
            regressed = (change if m["better"] == "lower"
                         else -change) > m["bound"]
            passed = passed and not regressed
            noise = spread(vals["base"])
            won, pairs = head_wins(m, sides["base"], sides["head"])
            gain = (10 * won >= 9 * pairs
                    and (base - head if m["better"] == "lower"
                         else head - base) > quartile_distance(vals["base"]))
            lines.append("%-12s %-12s base %12.6g head %12.6g %+7.1f%% "
                         "bound %.2f base spread %.3f won %d/%d %s%s%s"
                         % (w, m["name"], base, head, 100 * change,
                            m["bound"], noise, won, pairs,
                            "gain " if gain else "",
                            "REGRESSED" if regressed else "ok",
                            " unresolved" if noise > m["bound"] else ""))
    return lines, passed


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: tools/perf_ab.py BASE")
    base_rev, spec = sys.argv[1], load_spec(ROOT)
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as base_root:
        tar = subprocess.run(["git", "-C", ROOT, "archive", base_rev],
                             stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=tar, check=True)
        base_names = {w["name"] for w in load_spec(base_root)["workloads"]}
        names = [w["name"] for w in spec["workloads"]
                 if w["name"] in base_names]
        roots = {"base": base_root, "head": ROOT}
        samples = {w: {"base": [], "head": []} for w in names}
        for p in range(PAIRS):
            order = ("base", "head") if p % 2 == 0 else ("head", "base")
            for w in names:
                for side in order:
                    r = run_once(roots[side], w)
                    samples[w][side].append(r)
                    print("pair %2d/%d %-4s %-12s %s"
                          % (p + 1, PAIRS, side, w, describe(r)), flush=True)
    lines, passed = verdict(spec, samples)
    print("\n".join(lines or ["no workload shared with " + base_rev]))
    print("perf_ab: head vs %s: %s" % (base_rev, "PASS" if passed else "FAIL"))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
