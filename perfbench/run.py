#!/usr/bin/env python3
"""Builds and runs the quickview benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold_inex_paged, hot_bookrev_serve, live_ingest_mixed.

The first run configures and builds perfbench/ (the engine library from
src/ plus the qvbench program) in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only re-check the build. The
program's standard output is passed through: "# record" and "# metric"
lines, then one JSON result line. Build output goes to standard error. The
exit code is non-zero when the build fails, a run fails its correctness
checks, or it overruns its time limit.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single measured run may take, set-up and checks included.
RUN_TIMEOUT_S = 170


class Stopped(Exception):
    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "qvbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, QVBENCH_SOURCE=source_id())
    cmd = [os.path.join(out, "qvbench")] + sys.argv[1:] + [
        "--workdir", os.path.join(out, "work")]
    # Stopping this script stops the benchmark process with it. The handler
    # only raises: waiting inside it would deadlock on the wait in progress.
    def stop(signum, frame):
        raise Stopped(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    child = subprocess.Popen(cmd, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except Stopped as stopped:
        return 128 + stopped.signum
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
