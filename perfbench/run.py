#!/usr/bin/env python3
"""Build and run bpfree's end-to-end benchmark.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --print-program SEED INDEX

Run from the root of a checkout. The first run configures and builds the
program's libraries and the benchmark binary (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later runs only check that the build is current. Build
output goes to standard error, so the last line of standard output is
the binary's JSON result. The exit status is the binary's: 0 when every
check passed, nonzero otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-eval", "trace-lab", "static-predict")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark binary. Returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--inject", metavar="LAYER=FRACTION",
                    help="spin FRACTION of each call's time after every "
                         "call into LAYER (sensitivity checks)")
    ap.add_argument("--print-program", nargs=2, metavar=("SEED", "INDEX"),
                    help="print one generated static-predict program")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        return 1
    if args.print_program:
        return subprocess.run([exe, "--print-program"] +
                              args.print_program).returncode
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.join(os.path.dirname(out), "perfbench-out")]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
