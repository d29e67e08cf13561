#!/usr/bin/env python3
"""Small-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds the harness like run.py does.
Checks, in about a minute:
  - every workload, shrunk with --small, prints exactly the metrics
    BENCHMARK.json declares for its mode, with the declared units and a
    direction, validates, and repeats its simulated counts;
  - a run under an injected fault plan lands in the failure count (and
    in pass_frac) instead of crashing the harness;
  - unknown or abbreviated arguments are rejected by run.py and by the
    harness binary, with no result printed;
  - run.py exits non-zero without a result in a directory that holds
    only BENCHMARK.json and perfbench/ (no simulator sources).
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

FAULT_WORKLOAD = "bfs-gwb-dts-64"  # DTS: steals go through the ULI path
FAULT_PLAN = "rt-corrupt-steal@1"

failures = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def harness(binary, *args):
    return run.run_binary(binary, list(args), timeout=120)


def main():
    spec = run.load_spec()
    binary = run.build()
    work = os.path.join(run.build_dir(), "selftest")
    os.makedirs(work, exist_ok=True)

    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            check(m.get("better") in ("lower", "higher"),
                  "%s declares a direction" % m["name"])

    for w in spec["workloads"]:
        for trace in (0, 1):
            code, res = harness(binary, "--workload", w["name"], "--small",
                                "--seconds", "0.1", "--trace", str(trace),
                                "--work-dir", work)
            name = "%s --trace %d" % (w["name"], trace)
            if code != 0 or res is None:
                check(False, name + " produced a result")
                continue
            problems = run.check_metrics(spec, trace, res["metrics"])
            check(not problems, name + " metrics match BENCHMARK.json "
                  + "; ".join(problems))
            check(res["correct"] and res["failed"] == 0
                  and res["repeat_ok"], name + " validates and repeats")

    code, res = harness(binary, "--workload", FAULT_WORKLOAD, "--small",
                        "--seconds", "0.1", "--work-dir", work,
                        "--faults", FAULT_PLAN)
    check(code == 0 and res is not None, "fault run completes")
    if res is not None:
        check(res["failed"] > 0 and not res["correct"],
              "fault run counted as failed (%d of %d)"
              % (res["failed"], res["attempted"]))
        check(res["metrics"]["pass_frac"]["value"] < 1,
              "fault run lowers pass_frac")

    script = os.path.join(run.HERE, "run.py")
    for bad in (["--workload", "mm-mesi-64", "--sede", "3"],
                ["--work", "mm-mesi-64"],
                ["--workload", "no-such-workload"]):
        p = subprocess.run([sys.executable, script] + bad,
                           capture_output=True, text=True, timeout=60)
        check(p.returncode == 2 and not p.stdout.strip(),
              "run.py rejects %s" % " ".join(bad))
    code, res = harness(binary, "--workload", "mm-mesi-64", "--sede=3")
    check(code == 2 and res is None, "harness rejects --sede=3")

    # A directory with only BENCHMARK.json and perfbench/ cannot build.
    bare = os.path.join(work, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "mm-mesi-64", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=170)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    try:
        printed = isinstance(json.loads(last[0]), dict)
    except ValueError:
        printed = False
    check(p.returncode != 0 and not printed,
          "bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
