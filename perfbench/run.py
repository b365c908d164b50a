#!/usr/bin/env python3
"""Builds and runs the lazygraph benchmark program, lazybench (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. lazybench is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), Release.
The last line of standard output is the run's JSON result; the full result
with its manifest goes to .bench_results/. Build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source tree cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lazybench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lazybench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = spec["per_layer" if trace else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(got.items()) ^ set(want.items())))
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        return fail("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no lazygraph sources at %s/src" % ROOT)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)
    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_results"),
           "--describe", git_describe()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail("lazybench exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        return fail("bad result: %s" % e)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
