#!/usr/bin/env python3
"""Builds and runs the RVaaS end-to-end benchmark.

Run from the repository root:

    python3 rvbench/run.py --workload wire-query --seed 1 --seconds 10 --trace 0
    python3 rvbench/run.py --selftest

The first call configures and builds the `rvbench` binary (Release) in the
build directory: $CARGO_TARGET_DIR when set, else `.bench_build` at the root.
Build output goes to stderr; the benchmark's own report goes to stdout and
its last line is one JSON object (see README.md).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build(out):
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "rvbench",
                    "-j", jobs()],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "rvbench")


def source_digest():
    """sha256 over the sources the binary is built from (a checkout without
    git metadata still gets a stable identity in the host record)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"rvbench: build failed: {e}", file=sys.stderr)
        return 2
    args = [binary] + sys.argv[1:] + [
        "--git-sha", git_sha(), "--source-digest", source_digest(),
        "--trace-dir", out]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"rvbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
