#!/usr/bin/env python3
"""Benchmark entry point for the BigTiny simulator.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. Builds perfbench/ (a CMake package
that compiles the simulator sources of the checkout, Release + LTO)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs one workload of BENCHMARK.json for
--seconds, checks its outputs, and prints as the last line of standard
output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Without --workload it runs every workload in turn and prints one such
line for each, with an added "workload" key; it then exits 1 if any
workload's outputs were wrong.

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics; the traced run also writes its
span log to <build>/work/trace-<workload>-<seed>.json. Every printed
metric must be declared in BENCHMARK.json with the same unit. At the
default seed the simulated cycle total is compared with the value
recorded in the workload's "why"; a difference is reported on standard
error but does not fail the run (a later change to the timing model
may move it on purpose).

Exit status: 0 with a result line; 1 when the build or the run fails;
2 on bad arguments (argparse rejects unknown or abbreviated flags).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0x5EEDBEEF  # apps::AppParams' default seed
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
EXPECTED = re.compile(r"default seed (\d+) gives (\d+) cycles")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then (re)build; returns the binary's path."""
    out = build_dir()
    log = sys.stderr
    try:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", out, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=log, stderr=log, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the harness; returns (exit code, parsed last line or None)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), timeout))
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return p.returncode, None


def declared(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(spec, trace, metrics):
    """Printed metrics must be exactly the declared set, same units."""
    want = declared(spec, trace)
    problems = []
    for name, m in metrics.items():
        if name not in want:
            problems.append("undeclared metric %s" % name)
        elif m["unit"] != want[name]:
            problems.append("%s: unit %s, declared %s"
                            % (name, m["unit"], want[name]))
    for name in want:
        if name not in metrics:
            problems.append("missing metric %s" % name)
    return problems


def expected_cycles(workload):
    m = EXPECTED.search(workload["why"])
    return (int(m.group(1)), int(m.group(2))) if m else None


def run_workload(spec, binary, workload, seed, seconds, trace):
    """Run one workload; returns its result object (contract form)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    name = workload["name"]
    cmd = ["--workload", name, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(
            work, "trace-%s-%d.json" % (name, seed))]
    code, res = run_binary(binary, cmd)
    if code != 0 or res is None:
        fail("%s: harness exited %d without a result" % (name, code))

    problems = check_metrics(spec, trace, res["metrics"])
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("%s seed %d: %d simulated cycles, %d/%d runs failed, "
          "counts repeat: %s"
          % (name, seed, res["sim_cycles"], res["failed"],
             res["attempted"], res["repeat_ok"]), file=sys.stderr)
    exp = expected_cycles(workload)
    if exp and exp[0] == seed and exp[1] != res["sim_cycles"]:
        print("perfbench: NOTE %s: %d simulated cycles at the default "
              "seed, BENCHMARK.json records %d"
              % (name, res["sim_cycles"], exp[1]), file=sys.stderr)
    return {"correct": bool(res["correct"]) and not problems,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": res["metrics"]}


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False,
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    help="one workload of BENCHMARK.json; all when omitted")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload is not None and args.workload not in workloads:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads)))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    if args.workload is not None:
        print(json.dumps(run_workload(spec, binary,
                                      workloads[args.workload], args.seed,
                                      seconds, args.trace)))
        return 0
    # Every workload in turn: one result line each, tagged by name.
    ok = True
    for name, w in workloads.items():
        res = run_workload(spec, binary, w, args.seed, seconds, args.trace)
        ok = ok and res["correct"]
        print(json.dumps(dict(workload=name, **res)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
