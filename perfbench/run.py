#!/usr/bin/env python3
"""Build the benchmark binary (Release, from this checkout's sources) and run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build lives in .bench_build/ and is
incremental; its output goes to .bench_build/build.log, so the binary's
result object stays the last line of stdout. Any further arguments
(--smoke, --corrupt) are passed to the binary unchanged.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return os.environ.get("PERFBENCH_GIT_SHA", "unknown")
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "x"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "x"
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    cmd = [BINARY] + args + ["--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
