#!/usr/bin/env python3
"""Build and run the PASN benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --self-check

Run from the repository root.  Builds the `pasn-perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs one workload in a child
process with the `PASN_*` environment overrides removed.  The child's last
line of standard output, one JSON object, is checked and printed as this
script's last line.  Any failure exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PASN_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    cmd = [os.path.join(target, "release", "pasn-perfbench")] + argv
    if "--out" not in argv:
        cmd += ["--out", os.path.join(target, "perfbench-spans")]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    if "--self-check" in argv:
        return
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no JSON result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    print(lines[-1])


if __name__ == "__main__":
    main(sys.argv[1:])
