#!/usr/bin/env python3
"""The repository benchmark: figure-batch-shaped workloads on the simulator.

Run from the root of a checkout:

  python3 perfbench/run.py --workload sweep-long --seconds 50 --trace 0
      one untraced run at the default seed: the workload's batch repeated
      for --seconds, each repeat in a fresh process, with set-up passes in
      between; prints every end-to-end metric and, as the last line,
      {"correct", "attempted", "failed", "metrics"}.
  python3 perfbench/run.py --workload sweep-long --seed 1 --trace 1
      the traced run: per-layer metrics (see METRICS.md).
  python3 perfbench/run.py --all [--trace 1]
      every workload once.
  python3 perfbench/run.py --steadiness N [--seed S] [--workload W]
      every workload (or W) N times with seeds S..S+N-1, alternating the
      workload order; prints each end-to-end metric's median, quartiles
      and spread against its bound in BENCHMARK.json.
  python3 perfbench/run.py --update-reference
      re-records the per-job reference digests at the default seed.

The driver binary is built from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build) with the repository's release
flags. Every job's result digest (cycles, instructions, register checksum,
registry JSONL hash) is checked against perfbench/reference/<workload>.tsv;
jobs without a stored reference are checked for repeat identity instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_PASSES = 5
MIN_REPS = 2
MAX_REPS = 500
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_driver():
    """Configures and builds the driver; returns its path."""
    sim_header = os.path.join(ROOT, "src", "sim", "Simulation.h")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(sim_header)):
        fail("simulator sources not found next to perfbench/; "
             "run from the root of a full checkout")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = out if os.path.isabs(out) else os.path.join(ROOT, out)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DTRIDENT_DCHECKS=OFF"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def drive(driver, mode, workload, seed):
    """Runs one driver process; returns its JSON result, or None if it did
    not finish cleanly."""
    cmd = [driver, mode, "--workload", workload, "--seed", str(seed)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: " + " ".join(cmd))
        return None
    if r.stderr:
        log(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (" ".join(cmd), r.returncode))
        return None
    return json.loads(lines[-1])


def load_reference(workload):
    path = os.path.join(HERE, "reference", workload + ".tsv")
    ref = {}
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                if line.strip() and not line.startswith("#"):
                    label, digest = line.rstrip("\n").split("\t")
                    ref[label] = digest
    return ref


def check_digests(digests, ref, seen):
    """Counts jobs whose digest differs from the stored reference or, for
    jobs without one, from the first run that produced them."""
    bad = 0
    for label, digest in digests.items():
        expected = ref.get(label, seen.setdefault(label, digest))
        if digest != expected:
            log("perfbench: result mismatch for %s: %s != %s"
                % (label, digest, expected))
            bad += 1
    return bad


def metric(spec_entry, value):
    return {"value": value, "unit": spec_entry["unit"]}


def run_untraced(driver, spec, workload, seed, seconds):
    ref = load_reference(workload)
    setups, reps, seen = [], [], {}

    def setup_pass():
        # Each set-up pass runs in a fresh process, as a figure binary pays
        # set-up once, cold; passes interleave with the batch repeats so
        # they sample the same host conditions.
        setups.append(drive(driver, "setup", workload, seed))
        return setups[-1]["jobs"] if setups[-1] else 1

    jobs = setup_pass()
    attempted = failed = 0
    t0 = time.monotonic()
    while len(reps) < MAX_REPS:
        r = drive(driver, "batch", workload, seed)
        if r is None:
            attempted += jobs
            failed += jobs
            break
        reps.append(r)
        jobs = r["jobs"]
        attempted += jobs
        failed += check_digests(r["digests"], ref, seen)
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break
        if len(setups) < SETUP_PASSES:
            setup_pass()
    while len(setups) < SETUP_PASSES:
        setup_pass()
    setup_s = [s["setup_s"] for s in setups if s]
    # Interference from other tenants of a shared host only ever slows a
    # pass or a repeat down, so the fastest one is the run's estimate.
    values = {}
    if len(setup_s) == len(setups):
        values["setup_s"] = min(setup_s)
    else:
        failed += jobs
    if reps:
        values["wall_s"] = min(r["wall_s"] for r in reps)
        values["sim_ips"] = max(r["instructions"] / r["cpu_s"] for r in reps)
        values["peak_rss_mb"] = statistics.median(
            r["maxrss_kb"] / 1024.0 for r in reps)
    metrics = {m["name"]: metric(m, values.get(m["name"], 0.0))
               for m in spec["end_to_end"]}
    log("%s seed %d: %d batch repeats, %d jobs each; wall_s %s; setup_s %s"
        % (workload, seed, len(reps), jobs,
           " ".join("%.3f" % r["wall_s"] for r in reps),
           " ".join("%.3f" % x for x in setup_s)))
    for name, m in metrics.items():
        print("  %-12s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-12s %14d count" % ("jobs", attempted))
    print("  %-12s %14d count" % ("jobs_failed", failed))
    return {"correct": failed == 0 and bool(reps) and "setup_s" in values,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(driver, spec, workload, seed):
    r = drive(driver, "trace", workload, seed)
    if r is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {m["name"]: metric(m, 0.0)
                            for m in spec["per_layer"]}}
    failed = r["identity_failures"] + check_digests(
        r["digests"], load_reference(workload), {})
    metrics = {m["name"]: metric(m, r["metrics"].get(m["name"], 0.0))
               for m in spec["per_layer"]}
    log("%s seed %d traced: %d jobs, %d identity failures"
        % (workload, seed, len(r["digests"]), r["identity_failures"]))
    for name, m in metrics.items():
        print("  %-44s %16.6f %s" % (name, m["value"], m["unit"]))
    return {"correct": failed == 0, "attempted": len(r["digests"]),
            "failed": failed, "metrics": metrics}


def steadiness(driver, spec, names, n, seed0, seconds):
    samples = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for i in range(n):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            res = run_untraced(driver, spec, w, seed0 + i, seconds)
            if not res["correct"]:
                log("perfbench: %s seed %d was not correct" % (w, seed0 + i))
            for name, m in res["metrics"].items():
                samples[w][name].append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    print("%-13s %-12s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in names:
        report[w] = {}
        for name, vals in samples[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < bounds[name] / 3 else
                       "within" if spread <= bounds[name] else "WIDE")
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bounds[name],
                               "values": vals}
            print("%-13s %-12s %12.4f %12.4f %12.4f %8.4f %6.3f %s" % (
                w, name, q1, med, q3, spread, bounds[name], verdict))
    return report


def update_reference(driver, spec):
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for w in (x["name"] for x in spec["workloads"]):
        r = drive(driver, "batch", w, DEFAULT_SEED)
        if r is None:
            fail("reference run of %s failed" % w)
        with open(os.path.join(HERE, "reference", w + ".tsv"), "w") as f:
            f.write("# label\tdigest (seed %d)\n" % DEFAULT_SEED)
            for label in sorted(r["digests"]):
                f.write("%s\t%s\n" % (label, r["digests"][label]))
        log("wrote reference for %s: %d jobs" % (w, len(r["digests"])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r; one of %s" % (args.workload, names))
    if not (args.workload or args.all or args.steadiness
            or args.update_reference):
        fail("give --workload, --all, --steadiness or --update-reference")
    driver = build_driver()

    if args.update_reference:
        update_reference(driver, spec)
        return
    if args.steadiness:
        only = [args.workload] if args.workload else names
        print(json.dumps(steadiness(driver, spec, only, args.steadiness,
                                    args.seed, seconds)))
        return
    run = (lambda w: run_traced(driver, spec, w, args.seed)) if args.trace \
        else (lambda w: run_untraced(driver, spec, w, args.seed, seconds))
    if args.all:
        print(json.dumps({w: run(w) for w in names}))
        return
    print(json.dumps(run(args.workload)))


if __name__ == "__main__":
    main()
