#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 30 --trace 0

It builds the Go benchmark in perfbench/ with every Go cache kept under
the build directory ($CARGO_TARGET_DIR if set, else .bench_build), so the
run reads and writes nothing outside the checkout, then runs it with the
given arguments. The benchmark prints its result as the last line.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    home = os.path.join(build, "gohome")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in (home, env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + built.stdout)
        return 2
    args = sys.argv[1:]
    if not any(a == "--trace-dir" or a.startswith("--trace-dir=") for a in args):
        args += ["--trace-dir", os.path.join(build, "perfbench")]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
