#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all ...   # every workload in turn
  python3 perfbench/run.py --selftest

The first call builds perfbench/ (a CMake package that compiles the
simulator from src/ together with the benchmark program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A
traced run (--trace 1) also writes its per-layer host split as a Chrome
trace (open it in Perfetto) into the build directory.

Workloads, metrics and the correctness gate are described at the top of
perfbench/perfbench.cpp.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "cluster.hpp")):
        sys.exit("perfbench: no simulator sources under %s/src" % ROOT)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$", f.read(),
                             re.M)
        if home is None or os.path.realpath(home.group(1)) != os.path.realpath(HERE):
            os.remove(cache)  # configured from another checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def kernel_includes_ok():
    """The reference kernel may include the standard library and its own
    header only, never simulator code."""
    ok = True
    for name in ("kernel.hpp", "kernel.cpp", "kernel_check.cpp"):
        with open(os.path.join(HERE, name)) as f:
            for line in f:
                m = re.match(r'\s*#\s*include\s*([<"])([^>"]+)', line)
                if m and m.group(1) == '"' and m.group(2) != "kernel.hpp":
                    print("FAIL %s includes %s" % (name, m.group(2)))
                    ok = False
    if ok:
        print("ok   reference kernel sources include only the standard "
              "library and kernel.hpp")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    build(bdir)
    exe = os.path.join(bdir, "perfbench")
    if args.selftest:
        sys.stdout.flush()
        ok = kernel_includes_ok()
        sys.stdout.flush()
        ok = subprocess.run([os.path.join(bdir, "perfbench_kernel_check")]).returncode == 0 and ok
        sys.stdout.flush()
        ok = subprocess.run([exe, "--selftest"]).returncode == 0 and ok
        return 0 if ok else 1

    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    rc = 0
    for name in names:
        cmd = [exe, "--workload", name, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(
                bdir, "trace-%s-seed%s.json" % (name, args.seed))]
        sys.stdout.flush()
        rc = rc or subprocess.run(cmd).returncode
    return rc


if __name__ == "__main__":
    sys.exit(main())
