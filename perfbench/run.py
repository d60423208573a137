#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload closure_exec --seed 1 --seconds 25 --trace 0

The Go build cache, the binary, the spill directory and the traced run's
span files all live under .bench_build/ at the repository root, so a run
reads and writes nothing outside the checkout. The benchmark process
replaces this one (exec), so there is no child process to manage. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    try:
        build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(tmp, binary)  # atomic, so concurrent runs never see half a binary
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
