#!/usr/bin/env python3
"""Build and run the CROPHE benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is configured and built
from source (Release) under $CARGO_TARGET_DIR, or .bench_build when that
is unset, then run with every CROPHE_* variable removed from its
environment so no run inherits a plan cache, an autotune table, a thread
count, a kernel backend or a fault plan. Build output goes to stderr; the
binary's stdout, whose last line is the result JSON, passes through. A
failed build exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def run(cmd, env=None, timeout=None, stdout=None):
    """Run cmd to completion (killing it on timeout); return its code."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs], stdout=sys.stderr) == 0


def main(argv):
    # A terminated runner still kills and reaps the child it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The binary validates every flag; only the trace file name is ours.
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--workload", default="run")
    peek.add_argument("--trace", default="0")
    known, _ = peek.parse_known_args(argv)
    args = list(argv)
    if known.trace == "1":
        args += ["--trace-out",
                 os.path.join(build_dir, "trace-%s.json" % known.workload)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CROPHE_")}
    sys.stdout.flush()
    try:
        return run([os.path.join(build_dir, "perfbench")] + args, env=env,
                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
