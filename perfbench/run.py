#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It configures and builds perfbench/ with CMake
(the benchmark compiles the repo's libraries from src/ itself) into
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary with
the same arguments. Build output goes to stderr; the last line of stdout is
the benchmark's JSON result. perfbench/perfbench.cpp describes the workloads
and metrics; perfbench/workloads.json records why each workload exists, which
layer metric should move which end-to-end metric, seeds, baselines and the
figures measured with this benchmark.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no sfi sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT,
                           os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [binary] + sys.argv[1:] + ["--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
