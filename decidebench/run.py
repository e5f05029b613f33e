#!/usr/bin/env python3
"""Time-to-decide benchmark for sdn.

Builds the sdn library and the decide_bench program from this checkout's
sources (Release, into .bench_build/decidebench), runs one workload (or all
of them) and prints each metric by name and unit. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 decidebench/run.py --workload gnp-65k --seed 42 --seconds 40 --trace 0
    python3 decidebench/run.py --workload all            # every workload
    python3 decidebench/run.py --workload all --smoke    # tiny n, seconds

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when the build and the run worked
and the metrics printed are exactly those BENCHMARK.json names; otherwise
no result line is printed. See decidebench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "decidebench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("decidebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (if needed) and builds decide_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("sdn sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    try:
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A cache left by a checkout at another path: start afresh.
            shutil.rmtree(BUILD, ignore_errors=True)
            subprocess.run(configure, stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "decide_bench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    return os.path.join(BUILD, "decide_bench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, workload, args, spec):
    """Runs one workload; returns its parsed result object."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("%s: decide_bench exited with %d" % (workload, proc.returncode),
             proc.returncode or 1)
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if names != want:
        fail("%s printed metrics %s, BENCHMARK.json names %s"
             % (workload, names, want))
    return result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny n: checks that every metric prints")
    args = p.parse_args()
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        print("## workload %s" % w)
        sys.stdout.flush()
        results[w] = run_one(binary, w, args, spec)
        if len(workloads) > 1:
            print(json.dumps(results[w]))
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
