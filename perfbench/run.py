#!/usr/bin/env python3
"""Benchmark entry point.

Builds the release `spg-server` binary and the `perfbench` harness from
source, then runs one workload (or the self-check) and passes the harness's
output through. The last line of a measured run is the result object.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Build artefacts go to $CARGO_TARGET_DIR (default: .bench_build in the
current directory); spans and summaries go to perfbench/out/.
"""

import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(manifest)] + extra
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    args = sys.argv[1:]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(REPO / "Cargo.toml", ["-p", "spg-server", "--bin", "spg-server"], env)
    build(BENCH / "harness" / "Cargo.toml", [], env)

    release = target / "release"
    cmd = [str(release / "perfbench"), "--server", str(release / "spg-server"),
           "--out", str(BENCH / "out")] + args
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(done.returncode)
    if "--self-check" in args:
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        sys.exit("run.py: the harness printed no result line")


if __name__ == "__main__":
    main()
