#!/usr/bin/env python3
"""Build the `harness` CLI and the perfbench binary from source, then run
one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build); build logs go to stderr so the last stdout line
stays the benchmark's JSON result. Exits non-zero, printing no result, when
the checkout holds no buildable workspace.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no Cargo workspace at %s; nothing to benchmark" % ROOT,
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    if build(target, workspace, "-p", "harness", "--bin", "harness") != 0:
        return 1
    if build(target, os.path.join(HERE, "Cargo.toml")) != 0:
        return 1
    perfbench = os.path.join(target, "release", "perfbench")
    harness = os.path.join(target, "release", "harness")
    cmd = [perfbench, "--harness", harness, "--root", ROOT] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
