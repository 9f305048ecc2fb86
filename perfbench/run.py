#!/usr/bin/env python3
"""Build the hedgeq benchmark binary (hqbench) from source and run one workload.

    python3 perfbench/run.py --workload eval_large --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/; later
runs reuse that build. hqbench's stdout passes through, except that its last
line, the result JSON, keeps only the metrics BENCHMARK.json names for the
run's mode (end_to_end untraced, per_layer traced); the others stay on their
"metric" lines. A named metric that hqbench did not report is an error.
Build output goes to stderr. --failpoint arms a library failpoint (for
example phr/select-wrong-node) to show that the answer checks catch a wrong
answer.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hqbench")
WORKLOADS = ("eval_large", "compile_schema", "serve_mixed")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hqbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Digest of the library and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def manifest_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(stdout, wanted):
    """hqbench's result line cut down to the metrics in `wanted`."""
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("hqbench printed no result line")
    metrics = result["metrics"]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        fail(f"hqbench did not report {', '.join(missing)}")
    wrong = [n for n, unit in wanted.items() if metrics[n]["unit"] != unit]
    if wrong:
        fail(f"hqbench reported {', '.join(wrong)} in another unit")
    result["metrics"] = {n: metrics[n] for n in wanted}
    return lines[:-1], json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--failpoint")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the hedgeq sources (src/) are not next to perfbench/; "
             "run from the root of a full checkout")

    wanted = manifest_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.failpoint:
        cmd += ["--failpoint", args.failpoint]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"hqbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode not in (0, 1):  # 1: an answer check failed
        sys.stdout.write(done.stdout)
        fail(f"hqbench exited {done.returncode}")
    head, last = result_line(done.stdout, wanted)
    for line in head:
        print(line)
    print(last)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
