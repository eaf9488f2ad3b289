#!/usr/bin/env python3
"""Steadiness record: run the benchmark several times and summarise the spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

For each workload this runs `perfbench/run.py --trace 0` once per seed
(1..--runs) and records, per end-to-end metric, the median, quartiles, the
quartile spread as a share of the median and the coefficient of variation
across runs, next to the metric's bound from BENCHMARK.json. Across the
timed repetitions inside the runs it records the per-repetition throughput
and set-up spread (scaled by the host probe as reported, and unscaled), the
host scale itself, the fitted elasticity of throughput to the probe time, the
drift from the first to the last repetition of a run, and the warm-up
penalty (untimed first repetition vs the median timed one). A metric
whose quartile spread exceeds its bound is flagged; setup_s is exempt from
that check but reported.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import (PROBE_EXPONENT, host_scale, mean_probe_s,  # noqa: E402  (same scaling)
                 scaled_run_s, throughput)


def spread(values):
    """Median, quartiles, quartile spread / median and cv of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
        "cv": statistics.pstdev(values) / mean if mean else 0.0,
        "n": len(values),
    }


def run_once(workload, seed, seconds, raw_path):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--raw", raw_path]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(raw_path) as f:
        report = json.load(f)[0]
    return result, report


def summarise(runs, spec):
    results = [r for r, _ in runs]
    reports = [rep for _, rep in runs]
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        entry = spread(values)
        entry["bound"] = metric["bound"]
        entry["within_bound"] = (metric["name"] == "setup_s" or
                                 entry["iqr_over_median"] <= metric["bound"])
        entry["values"] = values
        metrics[metric["name"]] = entry
    timed = [r for rep in reports for r in rep["reps"]]
    drift = [rep["reps"][-1]["invocations"] / rep["reps"][-1]["run_s"] /
             (rep["reps"][0]["invocations"] / rep["reps"][0]["run_s"]) - 1.0
             for rep in reports if len(rep["reps"]) > 1]
    # Slope of log throughput on log probe time over the timed repetitions:
    # an estimate of run.py's PROBE_EXPONENT for this workload (biased low by
    # the probe's own noise).
    log_rate = [math.log(r["invocations"] / r["run_s"]) for r in timed]
    log_probe = [math.log(mean_probe_s(r)) for r in timed]
    elasticity = -statistics.covariance(log_rate, log_probe) / statistics.variance(log_probe)
    warmup_penalty = [rep["warmup"]["run_s"] / statistics.median(r["run_s"] for r in rep["reps"])
                      - 1.0 for rep in reports]
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in results),
        "fingerprints": sorted({rep["reps"][0]["fingerprint"] for rep in reports}),
        "repetitions_per_run": [len(rep["reps"]) for rep in reports],
        "metrics": metrics,
        "invocations_per_s_unscaled": spread([throughput(rep, scaled=False)
                                              for rep in reports]),
        "per_repetition": {
            "invocations_per_s": spread([r["invocations"] / scaled_run_s(r)
                                         for r in timed]),
            "invocations_per_s_unscaled": spread([r["invocations"] / r["run_s"]
                                                  for r in timed]),
            "setup_s": spread([r["setup_s"] * host_scale(r) for r in timed]),
            "setup_s_unscaled": spread([r["setup_s"] for r in timed]),
            "host_scale": spread([host_scale(r) for r in timed]),
        },
        "probe_exponent_used": PROBE_EXPONENT,
        "probe_elasticity_fit": elasticity,
        "first_to_last_repetition_drift_unscaled": spread(drift) if len(drift) >= 2 else None,
        "warmup_penalty": spread(warmup_penalty),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma list (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="seconds per run (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--out", default="", help="write the record here (default: stdout only)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    record = {
        "measured_at_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seconds_per_run": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as raw_dir:
        for workload in workloads:
            runs = []
            for seed in record["seeds"]:
                runs.append(run_once(workload, seed, seconds,
                                     os.path.join(raw_dir, "%s-%d.json" % (workload, seed))))
                print("%s seed %d: %s" % (workload, seed, json.dumps(
                    {k: round(v["value"], 6) for k, v in runs[-1][0]["metrics"].items()})),
                    flush=True)
            record["workloads"][workload] = summarise(runs, spec)
            for name, entry in record["workloads"][workload]["metrics"].items():
                print("  %-18s median %-14.6g iqr/median %.4f (bound %.2f)%s" % (
                    name, entry["median"], entry["iqr_over_median"], entry["bound"],
                    "" if entry["within_bound"] else "  OVER BOUND"), flush=True)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
