#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--golden-seed N] [--trace-out FILE]

Run from the repository root.  Configures and builds perfbench/ (which
builds the repository's dmr library from source) into a directory under
$CARGO_TARGET_DIR or .bench_build/ named after this source tree, then
runs the benchmark program with the same arguments.  Every call
reconfigures (cheap once the cache exists), so the git sha baked in at
configure time is the current one, and two checkouts sharing one
$CARGO_TARGET_DIR never build each other's sources.
Build output goes to stderr; the program's stdout is passed through, and
its last line is the result object.  Exits non-zero without a result when
the build fails (for example when the repository sources are missing).
"""
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    source = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(root), "perfbench-" + source)


def build(out):
    """Configure and build; with a cache present both steps are cheap."""
    os.makedirs(out, exist_ok=True)
    generator = []
    if (not os.path.exists(os.path.join(out, "CMakeCache.txt"))
            and _have("ninja")):
        generator = ["-G", "Ninja"]
    # A lock file keeps concurrent invocations from building at once.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        _run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
             + generator)
        _run(["cmake", "--build", out, "--target", "dmr_perfbench",
              "trace_validate", "--parallel", "4"])


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _run(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(result.returncode or 1)


def main(argv):
    out = build_dir()
    build(out)
    binary = os.path.join(out, "dmr_perfbench")
    os.makedirs(".bench_build", exist_ok=True)
    result = subprocess.run([binary] + argv)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
