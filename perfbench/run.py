#!/usr/bin/env python3
"""Wall-clock benchmark of the AQUOMAN simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tpch_sweep --seed 1 --seconds 25 --trace 0

Builds perfbench/ (a CMake package compiling the checkout's src/ in
Release) into .bench_build/perfbench on first use, then runs one
workload in a single harness process. The harness prints every metric by
name and unit, checks the simulator's outputs, and ends its output with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Result and
trace files go to .bench_build/perfbench/out/.

Measured runs refuse to start when any AQUOMAN_* variable is set;
perfbench/sensitivity.py is the only caller that sets one.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("tpch_sweep", "service_1x", "service_2x_replay")
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
OUT_DIR = BUILD_DIR / "out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_checkout():
    """The benchmark compiles the simulator from this checkout."""
    for need in ("BENCHMARK.json", "CMakeLists.txt", "src/CMakeLists.txt",
                 "bench/bench_util.hh", "perfbench/CMakeLists.txt"):
        if not pathlib.Path(need).is_file():
            fail(f"{need} not found: run from the root of an aquoman "
                 "checkout")


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the sources the harness is built from."""
    if pathlib.Path(".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [pathlib.Path("CMakeLists.txt")]
    for top in ("src", "bench", "perfbench"):
        files += [p for p in pathlib.Path(top).rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p).encode() + b"\0" + p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then an incremental build of the harness."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_harness", "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_harness(args, env=None, sensitivity=None):
    """Run the harness; returns (stdout, parsed result line)."""
    cmd = [str(HARNESS), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--out-dir", str(OUT_DIR)]
    if sensitivity:
        cmd += ["--sensitivity", sensitivity]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail(f"harness exited with {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result line has unexpected keys")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        fail("harness metrics disagree with BENCHMARK.json: "
             + ", ".join(f"{k} [{u}]" for k, u in
                         sorted(set(got.items()) ^ set(want.items()))))
    return r.stdout, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main():
    args = parse_args()
    check_checkout()
    build()
    stdout, _ = run_harness(args)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
