#!/usr/bin/env python3
"""Repository benchmark: build fsdl_perfbench from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only check
that the build is current. Human-readable lines go to stdout first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the `end_to_end` ones listed in
BENCHMARK.json, with --trace 1 the `per_layer` ones; a traced run also
writes a span dump and a per-layer summary to <build dir>/out/.

NAME is a workload of BENCHMARK.json.

Exit status: 0 on a correct run, 1 when an answer failed the correctness
gate (the result line still prints, with "correct": false), 2 when the
benchmark could not be built or run (no result line).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed for routine runs, and a hold-out seed kept for confirming a gain
# claim on inputs the change was not tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def run_quietly(cmd, timeout, env):
    """Run a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    # The compiler's scratch files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quietly(["cmake", "--build", build_dir, "--target", "fsdl_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, env)
    return os.path.join(build_dir, "fsdl_perfbench")


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} not found")
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", out_dir, "--commit", source_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"fsdl_perfbench exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    full = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the output")
        metrics[m["name"]] = got
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and full["correct"] else 1)


if __name__ == "__main__":
    main()
