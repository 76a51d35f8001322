#!/usr/bin/env python3
"""Build and run the netpart end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module, which
reaches the repository's packages through a `replace` of the parent
module). This wrapper compiles it with every Go cache and temporary
directory kept under `.bench_build/` in the current directory, runs it with
the given arguments, and passes its output and exit code through. The last
line of standard output is the JSON result. Without the repository around
this directory the build fails and the wrapper exits non-zero.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    dirs = {
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(dirs)
    env.update({
        "TMPDIR": dirs["GOTMPDIR"],
        "XDG_CACHE_HOME": os.path.join(dirs["HOME"], ".cache"),
        "XDG_CONFIG_HOME": os.path.join(dirs["HOME"], ".config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    # GOMAXPROCS stays at its default (the CPU count) as the load shape requires.
    env.pop("GOMAXPROCS", None)
    binary = os.path.join(build, "perfbench-bin")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_OUT"] = os.path.join(build, "perfbench-out")
    res = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
