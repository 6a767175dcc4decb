#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every option is passed on to the harness (see bench.cpp and README.md).
The harness and the hxsp library are built from source into
.bench_build/perfbench with CMake, in Release mode; later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the harness's JSON result. The exit code is the harness's, or non-zero
when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hxsp_bench")


def source_id():
    """The git commit when the tree is a git checkout, plus a digest of
    every file the build reads, which identifies the sources either way."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip()[:12] + " " + ident
    return ident


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: the hxsp sources (CMakeLists.txt and src/) are "
                 "missing from " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "hxsp_bench"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("run.py: build failed: %s" % err)
    proc = subprocess.run([BINARY] + sys.argv[1:] + ["--source", source_id()])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
