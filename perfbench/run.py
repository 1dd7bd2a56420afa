#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, verify, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
simulator from src/) into .bench_build/, runs dmt-perfbench for one
workload, checks its results, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
and writes the spans as Chrome trace-event JSON into .bench_build/.
At the default seed (42) results are also compared with
BENCH_campaign.json (setup-4k) or with the digests pinned in
perfbench/reference.json (loop-thp, node-flush); at any other seed,
only samples of the same unit are compared with each other.

--pin rewrites this workload's digests in perfbench/reference.json
from a default-seed run; use it only after a deliberate change to
simulated results, with BENCH_campaign.json regenerated alongside.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import aggregate  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
CAMPAIGN = os.path.join(ROOT, "BENCH_campaign.json")
WORKLOADS = ("loop-thp", "setup-4k", "node-flush")
PINNED = ("loop-thp", "node-flush")
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def call(what, cmd, **kwargs):
    """Run a command; exit without a result line if it fails."""
    try:
        subprocess.run(cmd, check=True, **kwargs)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit("perfbench: %s failed: %s" % (what, e))


def build():
    """Configure (once) and build dmt-perfbench; output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        call("configure", ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                           "-DCMAKE_BUILD_TYPE=Release"],
             stdout=sys.stderr)
    call("build", ["cmake", "--build", BUILD, "-j", "4"],
         stdout=sys.stderr)
    return os.path.join(BUILD, "dmt-perfbench")


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.pin and (args.seed != DEFAULT_SEED or
                     args.workload not in PINNED):
        ap.error("--pin needs --seed %d and a workload of %s" %
                 (DEFAULT_SEED, ", ".join(PINNED)))

    binary = build()
    runs = os.path.join(BUILD, "runs")
    out, other = (os.path.join(runs, "%s-%d-%d.jsonl" % (
        args.workload, args.seed, t)) for t in (args.trace, 1 - args.trace))
    os.makedirs(runs, exist_ok=True)
    call("dmt-perfbench", [binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", str(args.trace), "--out", out],
         timeout=RUN_TIMEOUT_S)
    run = aggregate.Run(load_records(out))

    missing = aggregate.missing_samples(run)
    if missing:
        sys.exit("perfbench: no timed sample of " + ", ".join(missing))

    with open(REFERENCE) as f:
        reference = json.load(f)
    if args.pin:
        reference[args.workload] = aggregate.pinned_digests(run)
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
        log("pinned %d digests for %s" % (
            len(reference[args.workload]), args.workload))

    campaign = pinned = None
    if args.seed == DEFAULT_SEED:
        if args.workload in PINNED:
            pinned = reference[args.workload]
        else:
            with open(CAMPAIGN) as f:
                campaign = aggregate.campaign_index(json.load(f))
    # A run of the same workload and seed in the other trace mode, if
    # one exists, must have produced identical simulated results.
    sibling = None
    if os.path.exists(other):
        sibling = aggregate.pinned_digests(aggregate.Run(
            load_records(other)))
    attempted, failed, problems = aggregate.verify(run, campaign, pinned,
                                                   sibling)
    for p in problems:
        log("verification: " + p)
    if attempted == 0:
        sys.exit("perfbench: no unit execution finished")

    if args.trace:
        values = aggregate.per_layer(run, failed / attempted)
        units = dict(aggregate.PER_LAYER)
        trace_path = os.path.join(BUILD, "trace-%s-%d.json" % (
            args.workload, args.seed))
        with open(trace_path, "w") as f:
            json.dump(aggregate.chrome_trace(run), f)
        log("chrome trace: " + trace_path)
    else:
        values = aggregate.end_to_end(run)
        units = dict(aggregate.END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
