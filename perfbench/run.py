#!/usr/bin/env python3
"""Build the TaskVine benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanout-shared --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, scratch directories and trace exports all
live under .bench_build/ in the checkout, so the benchmark reads and writes
nothing outside it. Every argument is passed through to the benchmark
binary; its exit code is this script's exit code.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "HOME": os.path.join(out, "home"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in ("tmp", "config", "home"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
