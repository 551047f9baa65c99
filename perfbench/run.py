#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <bulk|fine|tenants_lossy> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, which compiles
the library crates under `crates/` from source) into `$CARGO_TARGET_DIR`,
default `.bench_build`, then runs it with the same arguments plus
`--out-dir` for the traced run's span file. The benchmark's output is
passed through unchanged: its last line is the JSON result. The exit
code is the benchmark's, or non-zero when the sources or the build are
missing.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("crates/core/Cargo.toml", "crates/roundabout/Cargo.toml",
           "crates/joins/Cargo.toml", "crates/relation/Cargo.toml")


def run(cmd, timeout, **kwargs):
    """Runs `cmd` to completion; kills and reaps it on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    root = os.getcwd()
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("error: run from the root of a cyclo-join checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr so the result stays the last stdout line.
    code = run(["cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", manifest],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"error: building the benchmark failed ({code})", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return run([binary, *argv, "--out-dir", target], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
