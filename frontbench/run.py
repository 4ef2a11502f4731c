#!/usr/bin/env python3
"""Builds and runs the front-door benchmark of the MD-join engine.

    python3 frontbench/run.py --workload olap_session --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (engine sources under src/ plus frontbench/) in Release into
.bench_build/; later runs rebuild only what changed. Results files and Chrome
traces go to .bench_out/. The last line of stdout is the result JSON.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "frontbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"frontbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "frontbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "frontbench"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (git failed)"


def source_digest():
    """sha256 over the paths and bytes of every file the benchmark builds from,
    so runs from a checkout without git history still name their source."""
    h = hashlib.sha256()
    for top in ("src", "frontbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["olap_session", "analyst_team", "out_of_core"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    # Its own process group: the benchmark forks a helper that times the
    # reference job, and a timeout stops both.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        stop(proc)
        return 1
    except BaseException:
        stop(proc)
        raise


def stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        proc.kill()
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())
