#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0 --regen-expected

Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
cawa_perfbench from the repository root. The last line of stdout is the
JSON result; build output and diagnostics go to stderr. The exit status
is cawa_perfbench's: 0 when every check passed, 1 on a mismatch, 2 on a
refused environment or bad arguments.

--regen-expected rewrites this run's entry (workload and seed) of
perfbench/expected.json with the counters of its fixed job set; it is
the only way that table changes. --self-test checks the percentile rule
and the table checks, and shows that a missing table or one corrupted
entry fails a real run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join("perfbench", "expected.json")
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build the benchmark and its tools."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            log("configure failed")
            return False
    jobs = str(min(len(os.sched_getaffinity(0)), 8))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "cawa_perfbench", "cawa_sweep", "cawad"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def self_test(binary, common):
    if subprocess.run([binary, "--self-test", "--expected",
                       EXPECTED]).returncode:
        return 1
    run = [binary, "--workload", "sweep-isolated", "--seed", "1",
           "--seconds", "1", "--trace", "0"] + common
    # End to end: without a readable table a run must fail at once.
    missing = os.path.join(os.path.dirname(binary), "no-such-table.json")
    proc = subprocess.run(run + ["--expected", missing],
                          stdout=subprocess.PIPE, text=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    log("missing table: %s" % ("refused" if refused else "NOT refused"))
    # Corrupt one pinned counter of a job the sweep-isolated workload
    # runs at seed 1; the run must report it and exit non-zero.
    with open(EXPECTED) as f:
        table = json.load(f)
    jobs = table["runs"]["sweep-isolated seed 1"]
    victim = next(name for name in sorted(jobs)
                  if name.startswith("needle.gto.lru.seed4."))
    jobs[victim]["sim.cycles"] += 1
    corrupted = os.path.join(os.path.dirname(binary),
                             "expected-corrupted.json")
    with open(corrupted, "w") as f:
        json.dump(table, f)
    proc = subprocess.run(run + ["--expected", corrupted],
                          stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    caught = (proc.returncode != 0 and result["correct"] is False
              and result["failed"] >= 1)
    log("corrupted expected entry %s: %s"
        % (victim, "caught" if caught else "NOT caught"))
    return 0 if refused and caught else 1


def main():
    os.chdir(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "cawa_perfbench")
    tools = os.path.join(build_dir, "cawa", "tools")
    # Relative work directory: cawad's socket path must stay short.
    common = ["--work-dir", os.path.relpath(os.path.join(build_dir, "work")),
              "--sweep-bin", os.path.abspath(os.path.join(tools,
                                                          "cawa_sweep")),
              "--cawad-bin", os.path.abspath(os.path.join(tools, "cawad"))]
    if args.self_test:
        return self_test(binary, common)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED, "--commit", git_commit()] + common
    if args.regen_expected:
        cmd.append("--regen-expected")
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
