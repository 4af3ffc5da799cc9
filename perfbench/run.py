#!/usr/bin/env python3
"""Build and run REFILL's benchmark.

    python3 perfbench/run.py --workload campaign-batch --seed 7 --seconds 15 --trace 0

Run from the repository root. The script builds the benchmark program
(perfbench/) and the refill-serve daemon (cmd/refill-serve) from source into
.bench_build/, keeping the Go build cache there too, then runs the program
with the same arguments. Everything the run writes stays under .bench_build/.
The program's last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(WORK, "bin")


def build(env):
    """Build both binaries; exit non-zero (printing no result) on failure."""
    steps = [
        (BENCH, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "refill-serve"), "./cmd/refill-serve"]),
    ]
    for cwd, cmd in steps:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            sys.stderr.write("perfbench: no Go module at %s; run from the repository root\n" % cwd)
            sys.exit(2)
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)


def main():
    # Keep the toolchain's caches, temporary files and telemetry inside
    # .bench_build, and never let it fetch modules or toolchains.
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(WORK, "gocache"),
        "GOPATH": os.path.join(WORK, "gopath"),
        "GOMODCACHE": os.path.join(WORK, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(WORK, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(WORK, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    for d in (BIN, env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    build(env)
    args = [os.path.join(BIN, "perfbench"), "-work", WORK, "-bin", BIN] + sys.argv[1:]
    proc = subprocess.run(args, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
