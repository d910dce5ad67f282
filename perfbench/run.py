#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload chord-tcp-64 --seed 1 --seconds 12 --trace 0

The Go build cache, temporary files and the binary stay under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
current directory. Arguments pass through to the program, whose last line of
output is the run's JSON result. Exits non-zero, printing no result, when the
program cannot be built.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOPROXY="off",
               GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
