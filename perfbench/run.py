#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds cmd/noded and the perfbench command from source into
.bench_build/perfbench (the Go build cache stays there too), then runs
perfbench with the given arguments and exits with its exit code. The
benchmark's last line of standard output is its JSON result.
"""

import ctypes
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def build(env):
    bin_dir = os.path.join(BUILD, "bin")
    steps = [
        (["go", "build", "-o", os.path.join(bin_dir, "noded"), "./cmd/noded"], ROOT),
        (["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."],
         os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            die("build failed: " + " ".join(cmd))
    return bin_dir


def die_with_parent():
    """Have the kernel send SIGTERM to the benchmark if this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, int(signal.SIGTERM))  # PR_SET_PDEATHSIG
    except OSError:
        pass


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
            os.path.join(ROOT, "cmd", "noded")):
        die("run from the repository root (go.mod and cmd/noded not found)")
    bin_dir = build(go_env())
    workdir = os.path.join(BUILD, "run")
    cmd = [os.path.join(bin_dir, "perfbench")] + sys.argv[1:] + [
        "-noded", os.path.join(bin_dir, "noded"), "-workdir", workdir]
    child = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=die_with_parent)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
