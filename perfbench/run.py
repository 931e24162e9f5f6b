#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
hdtest core from ../src) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign-gauss, campaign-rand, fleet-sim, serve-mmap.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer table.
The last line of stdout is the run's JSON result. Build output goes to
stderr. The build tree is $CARGO_TARGET_DIR (default .bench_build) under
the current directory.

Seed 7919 is held out: tune and develop on any other seed, and use 7919
only to confirm a claim.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
REFUSED_ENV = ("HDTEST_KERNEL_BACKEND", "HDTEST_DEVICE", "HDTEST_CODEBOOK")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_stamp():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return model, flags


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return sha + ("-dirty" if dirty else "")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"hdtest sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "hdtest_perfbench"])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "hdtest_perfbench"


def main():
    for name in REFUSED_ENV:
        if name in os.environ:
            fail(f"{name} is set; results under a forced backend, device or "
                 "codebook mode are not comparable — unset it")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else pathlib.Path.cwd() / target)
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)

    model, flags = cpu_stamp()
    print(f"stamp: nproc={os.cpu_count()} cpu=\"{model}\" flags={','.join(flags)} "
          f"git={git_sha()} held_out_seed={HELD_OUT_SEED}", flush=True)
    result = subprocess.run([str(binary), *sys.argv[1:], "--work-dir", str(build_dir)])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
