#!/usr/bin/env python3
"""Run one workload of the pnm benchmark.

    python3 pnmbench/run.py --workload campaign_cold --seed 1 --seconds 20 --trace 0

Run from the root of a pnm source tree.  The script builds the pnm
library and the pnmbench binary from that tree (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  The line before it stamps the result
(machine, build, ISA, sanitizer, compiler, source id, seed).  A failed
correctness gate, a failed build or a missing metric exits nonzero
without a result line.  Result files and span traces land in .bench_out.

Two more options: --smoke shrinks every workload to
a seconds-long correctness run (the benchmark's tests use it), and
--sanitize address|thread|undefined builds with that sanitizer, which
runs every gate but reports no numbers.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"pnmbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sanitize", choices=("address", "thread", "undefined"))
    return parser.parse_args()


def source_root():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "pnm", "pnm.hpp"))):
        fail(f"no pnm source tree in {root} (run from the repository root)")
    return root


def source_id(root):
    """The git commit when the tree is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(BENCH_DIR, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def build(root, sanitize):
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "pnmbench-" + (sanitize or "release"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + ("RelWithDebInfo" if sanitize else "Release")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if sanitize:
            configure.append("-DPNM_SANITIZE=" + sanitize)
        run_build_step(configure)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_build_step(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir


def run_build_step(command):
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        fail("build step failed: " + " ".join(command))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main():
    args = parse_args()
    root = source_root()
    spec = load_spec(root)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (expected one of {workloads})")
    build_dir = build(root, args.sanitize)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "pnmbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir,
               "--source-id", source_id(root)]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"workload exited with code {result.returncode} (see above)",
             result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if raw["stamp"]["sanitizer"] == "none":
        for metric in wanted:
            value = raw["metrics"].get(metric["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(f"metric {metric['name']} missing or not finite: {value!r}")
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    report = {"correct": True, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}

    record = {"stamp": raw["stamp"], "samples": raw["samples"], "result": report,
              "unlisted_metrics": {k: v for k, v in raw["metrics"].items()
                                   if k not in metrics}}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("stamp: " + json.dumps(raw["stamp"], sort_keys=True)
          + " samples: " + json.dumps(raw["samples"], sort_keys=True))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
