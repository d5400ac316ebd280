#!/usr/bin/env python3
"""Repository benchmark: build the perfbench binary and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 25 --trace 0

The binary and the simulator libraries are compiled from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
With --trace 0 the set-up time is measured several times, each in a
fresh process launched up to the start of its first op, and reported as
the median. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
human-readable report.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig9_sweep", "lint_absint", "inject_campaign")
SETUP_PROBES = 15
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir):
    """Configure once, then build the binary; return its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return None
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench",
           "--parallel", "4"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(out_dir, "perfbench")


def launch(exe, args):
    """Run the binary; return its last stdout line parsed as JSON."""
    launched = time.monotonic_ns()
    proc = subprocess.run([exe] + args + ["--launched-ns", str(launched)],
                          stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="op-order seed (the work does not depend on it)")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int, default=1,
                    help="inject_campaign fault-plan seed "
                         "(default 1; held out for claims: 2)")
    args = ap.parse_args()

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    common = ["--workload", args.workload,
              "--campaign-seed", str(args.campaign_seed)]
    run_args = common + ["--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out_dir, "spans-%s.jsonl" % args.workload)
        run_args += ["--spans-out", spans]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = launch(exe, common + ["--setup-only"])
                setups.append(probe["setup_s"])
        result = launch(exe, run_args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    print("workload %s, seed %d, %d s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for note in result.get("notes", []):
        print("  " + note)
    if not args.trace:
        print("  setup_s is the median of %d launches" % len(setups))
    else:
        print("  spans: %s" % spans)
    for name, m in metrics.items():
        print("  %-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
