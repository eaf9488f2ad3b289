#!/usr/bin/env python3
"""Benchmark entry point: build the binary, run one workload, check it, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 30 --trace 0

The first run builds perfbench/ (CMake, Release) into .bench_build/. The
benchmark binary then runs one untimed warm-up repetition and repeats the
workload for --seconds of host time. Every repetition's output fingerprint
must equal the first repetition's and the value stored in
perfbench/expected.json for the seed pair; a repetition that fails this
counts all of its simulated requests as failed, and the script exits 1.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
runs the binary twice, untraced and then traced (spans plus
DESICCANT_EVENT_PROFILE=1), for half of --seconds each, prints per-layer self
time and the event-profile reconciliation, writes the spans as Chrome
trace-event JSON under .bench_build/traces/, and reports the per-layer
metrics plus the tracing overhead.

The last line of standard output is always the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "desiccant_perfbench")
WORKLOADS = ("single_function", "trace_replay", "cell_failover")
DEFAULT_TRACE_SEED = 1234
DEFAULT_POPULATION_SEED = 20240601
# Host-probe scaling (perfbench.cc, HostProbe): each timed call's host seconds
# are multiplied by (PROBE_REFERENCE_S / the probe time just before it) **
# PROBE_EXPONENT. The reference is the probe's typical time on the 4-vCPU
# x86-64 host of steadiness.json. The exponent is the simulator's throughput
# elasticity to the probe time there: its heap/GC and event-core work slows
# down more under co-tenant contention than the probe does. Of the exponents
# tried, it gave the smallest run-to-run spread on most sets of runs (see
# NOTES.md; steadiness.json also records a fit, "probe_elasticity_fit").
PROBE_REFERENCE_S = 0.0075
PROBE_EXPONENT = 1.4


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "desiccant_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_binary(args, seconds, trace_out=None):
    """Runs the benchmark binary once and returns its parsed JSON report."""
    command = [BINARY, "--workload", args.workload, "--seconds", str(seconds),
               "--seed", str(args.seed), "--trace-seed", str(args.trace_seed),
               "--population-seed", str(args.population_seed)]
    env = dict(os.environ)
    env.pop("DESICCANT_EVENT_PROFILE", None)
    if trace_out is not None:
        command += ["--trace-out", trace_out]
        env["DESICCANT_EVENT_PROFILE"] = "1"
    done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True)
    if done.returncode != 0:
        raise RuntimeError("benchmark binary exited with code %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_reps(report, expected, traced):
    """Marks each repetition ok/failed; returns the list of failure reasons."""
    reps = [report["warmup"]] + report["reps"]
    reference = reps[0]
    problems = []
    for index, rep in enumerate(reps):
        reasons = []
        if rep["fingerprint"] != reference["fingerprint"] or rep["sim"] != reference["sim"]:
            reasons.append("differs from the first repetition")
        if expected is not None and rep["fingerprint"] != expected:
            reasons.append("fingerprint %s != expected %s" % (rep["fingerprint"], expected))
        if traced and rep["attributed"] != rep["dispatched"]:
            reasons.append("event profile attributed %d != dispatched %d"
                           % (rep["attributed"], rep["dispatched"]))
        if any(v is None for v in rep["sim"].values()):
            reasons.append("non-finite simulated outcome")
        rep["ok"] = not reasons
        if reasons:
            problems.append("repetition %d: %s" % (index, "; ".join(reasons)))
    return problems


def request_counts(reports):
    """(attempted, failed) simulated requests over the timed repetitions."""
    attempted = failed = 0
    for report in reports:
        for rep in report["reps"]:
            total = rep["completed"] + rep["failed"] + rep["dropped"]
            attempted += total
            failed += total if not rep["ok"] else rep["failed"] + rep["dropped"]
    return attempted, failed


def mean_probe_s(rep):
    return statistics.fmean(probe_s for probe_s, _ in rep["probes"])


def host_scale(rep):
    """(Reference / mean host-probe time) ** exponent for one repetition:
    above 1 when the host ran faster than the reference, below 1 when
    co-tenants slowed it down. Set-up times are multiplied by it."""
    return (PROBE_REFERENCE_S / mean_probe_s(rep)) ** PROBE_EXPONENT


def scaled_run_s(rep):
    """Timed host seconds, each scaled by the probe that preceded it."""
    return sum(timed_s * (PROBE_REFERENCE_S / probe_s) ** PROBE_EXPONENT
               for probe_s, timed_s in rep["probes"])


def throughput(report, scaled=True):
    """Median over repetitions of simulated invocations per host second."""
    return statistics.median(
        r["invocations"] / (scaled_run_s(r) if scaled else r["run_s"])
        for r in report["reps"])


def end_to_end(report, served_frac):
    reps = report["reps"]
    values = {
        "setup_s": statistics.median(r["setup_s"] * host_scale(r) for r in reps),
        "invocations_per_s": throughput(report),
        "peak_rss_mib": report["peak_rss_mib"],
        "served_frac": served_frac,
    }
    values.update(reps[0]["sim"])
    log("unscaled: invocations_per_s %.1f, setup_s %.6f; median host scale %.3f"
        % (throughput(report, scaled=False), statistics.median(r["setup_s"] for r in reps),
           statistics.median(host_scale(r) for r in reps)))
    log("%s: %d timed repetitions of %d simulated invocations each, %d requests each"
        % (report["workload"], len(reps), reps[0]["invocations"],
           reps[0]["completed"] + reps[0]["failed"] + reps[0]["dropped"]))
    return values


def per_layer(traced, untraced):
    keys = traced["reps"][0]["layers"].keys()
    values = {k: statistics.median(r["layers"][k] for r in traced["reps"]) for k in keys}
    fast, slow = throughput(untraced), throughput(traced)
    values["trace.overhead_pct"] = (fast / slow - 1.0) * 100.0
    log("tracing overhead: %.1f%% (invocations_per_s untraced %.1f, traced %.1f)"
        % (values["trace.overhead_pct"], fast, slow))
    log("per-layer self time (median per repetition):")
    for key in sorted(k for k in keys if k.startswith("self.")):
        log("  %-10s %10.2f ms" % (key[len("self."):-len("_ms")], values[key]))
    for index, rep in enumerate(traced["reps"]):
        log("event profile, repetition %d: dispatched %d, attributed %d -> %s"
            % (index + 1, rep["dispatched"], rep["attributed"],
               "reconciled" if rep["dispatched"] == rep["attributed"] else "MISMATCH"))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders independent units on the host; no simulated effect")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int, default=DEFAULT_TRACE_SEED)
    parser.add_argument("--population-seed", type=int, default=DEFAULT_POPULATION_SEED)
    parser.add_argument("--raw", help="also write the binary's reports to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected_all = json.load(f)["fingerprints"]
    if not build():
        return 1

    pair = "%d/%d" % (args.trace_seed, args.population_seed)
    expected = expected_all.get(args.workload, {}).get(pair)
    if expected is None:
        log("no stored fingerprint for %s at seed pair %s" % (args.workload, pair))

    traced = args.trace == 1
    if traced:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        half = max(1.0, args.seconds / 2.0)
        reports = [run_binary(args, half), run_binary(args, half, trace_out)]
        log("spans written to " + os.path.relpath(trace_out, ROOT))
    else:
        reports = [run_binary(args, args.seconds)]

    problems = []
    for report in reports:
        problems += check_reps(report, expected, report["traced"])
    if expected is None:
        problems.append("no stored fingerprint to check against")
    for problem in problems:
        log("CHECK FAILED: " + problem)
    attempted, failed = request_counts(reports)
    log("fingerprint %s (expected %s)" % (reports[0]["reps"][0]["fingerprint"], expected))

    if traced:
        values = per_layer(reports[1], reports[0])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(reports[0], (attempted - failed) / attempted)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(reports, f)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
