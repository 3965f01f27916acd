#!/usr/bin/env python3
"""Build the benchmark and the CLIs it drives, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper|replay|serve --seed N \
        --seconds S --trace 0|1

Everything the build and the run leave behind goes under .bench_build/
in the checkout: binaries, the Go build cache and scratch files. A build
is reused while the sources it came from are unchanged. The last line of
standard output is the result as one JSON object (see README.md).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
TOOLS = ["lptables", "lpcluster", "lpserve"]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "go-path"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
    )
    return env


def source_digest():
    """Hash every file the build reads, so an unchanged tree skips it."""
    h = hashlib.sha256()
    for top in ("go.mod", "go.sum", "cmd", "internal", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, _, names in os.walk(path):
                files += [os.path.join(d, n) for n in names
                          if n.endswith((".go", ".mod", ".sum"))]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    stamp = os.path.join(BIN, "stamp")
    digest = source_digest()
    try:
        with open(stamp) as fh:
            if fh.read() == digest:
                return
    except OSError:
        pass
    env = go_env()
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep] + ["./cmd/" + t for t in TOOLS]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        # The build's own output goes to stderr: stdout carries the result.
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    with open(stamp, "w") as fh:
        fh.write(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper", "replay", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s is not a checkout of the repository (no go.mod)" % ROOT)
    build()
    # The benchmark replaces this process, so whoever runs this script
    # waits on (and can signal) the measuring process itself.
    exe = os.path.join(BIN, "perfbench")
    os.execv(exe, [exe,
                   "-workload", args.workload, "-seed", str(args.seed),
                   "-seconds", str(args.seconds), "-trace", str(args.trace),
                   "-bin", BIN, "-work", BUILD,
                   "-spec", os.path.join(ROOT, "BENCHMARK.json")])


if __name__ == "__main__":
    main()
