#!/usr/bin/env python3
"""Build and run the same-host campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-gpr --seed 20140901 --seconds 10 --trace 0

It builds the Go benchmark in perfbench/ (a module of its own that uses
the repository's packages through a replace directive) into
.bench_build/perfbench/, with the Go build cache kept there too, then runs
it with the given flags. The benchmark prints one JSON result line last;
this script passes its output and exit code through. Nothing is written
outside the checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(OUT, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
        GOMAXPROCS=str(len(os.sched_getaffinity(0))),
    )
    return env


def run(cmd, cwd, env, timeout):
    """Runs cmd to completion, killing and reaping it on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20140901)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at the checkout root; nothing to benchmark", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    env = go_env()
    rc = run(["go", "build", "-trimpath", "-buildvcs=false", "-o", BINARY, "."],
             HERE, env, BUILD_TIMEOUT_S)
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return 1
    return run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace),
                "-work", OUT], ROOT, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
