#!/usr/bin/env python3
"""Build the ZipServ benchmark from source and run one workload.

    python3 perfbench/run.py --workload <paper_mix_long|tenant_fleet> --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo package, depending on the repository's
crates by path) in release mode, offline, into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs the binary with the same
arguments. Each workload runs in its own process, so peak memory is measured
per workload. The last line printed is the workload's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end well within the 180 s it may take.
RUN_TIMEOUT_S = 170


def main(args):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    binary = os.path.join(target, "release", "zipserv-perfbench")
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run took longer than %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit("perfbench: the run exited with %d" % run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
