#!/usr/bin/env python3
"""Builds and runs the LTAM served-workload benchmark.

Run from the root of an LTAM source tree:

    python3 perfbench/run.py --workload ingest_steady --seed 1 \
        --seconds 10 --trace 0

Workloads: ingest_steady, read_mix, checkpoint_retention. The binary is
built from source into .bench_build/ (CMake, RelWithDebInfo, only the
`ltam` library and this benchmark), durable directories live under
.bench_build/run-<pid>/ and are removed when the run ends. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; a build failure, a harness error or a correctness
mismatch exits nonzero without printing it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "ltam_perfbench")
WORKLOADS = ("ingest_steady", "read_mix", "checkpoint_retention")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} at the tree root: nothing to benchmark")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD, "--target", "ltam_perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S)


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        if args.trace:
            # Keep the span file of a traced run next to the build.
            for name in os.listdir(work_dir):
                if name.startswith("spans-"):
                    os.replace(os.path.join(work_dir, name),
                               os.path.join(ROOT, ".bench_build", name))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines:
        # No result line on failure: the diagnostics go to stderr.
        sys.stderr.write(out)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
