#!/usr/bin/env python3
"""Builds the benchmark and the shipped ibcm-serve from source, then runs one
benchmark run:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both executables go to $CARGO_TARGET_DIR
(default: target) under release/; run files go to <target>/benchmark/.
Build output goes to stderr, so the last line of stdout is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("run.py: no ibcm workspace around %s; nothing to build" % HERE, file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", workspace, "-p", "ibcm-http", "--bin", "ibcm-serve"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "ibcm-benchmark")
    sys.stdout.flush()
    os.execve(exe, [exe, "run"] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
