#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/, a Go module of its own).

Run from the repository root:

    python3 perfbench/run.py --workload bsp-sim-lci --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Everything the build and the run write stays under the build directory,
$CARGO_TARGET_DIR if set, else .bench_build: the Go build cache, the
binary, each run's full result (fingerprint included) under results/ and a
traced run's spans under spans/. The last line of standard output is the
result object; every other argument is passed to the benchmark unchanged.
"""

import os
import pathlib
import subprocess
import sys

RUN_TIMEOUT_S = 170


def arg(args, name):
    """Value of --name in args, or None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    args = sys.argv[1:]
    bench = pathlib.Path(__file__).resolve().parent
    root = pathlib.Path.cwd()
    build = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    for d in ("gocache", "gopath", "tmp", "results", "spans"):
        (build / d).mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": str(build / "gocache"),
        "GOPATH": str(build / "gopath"),
        "GOTMPDIR": str(build / "tmp"),
        "TMPDIR": str(build / "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "PERFBENCH_GIT_SHA": git_sha(root),
    })
    binary = build / "perfbench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if "--compare" not in args:
        workload, seed, trace = arg(args, "--workload"), arg(args, "--seed"), arg(args, "--trace")
        tag = f"{workload}-seed{seed}-trace{trace}"
        if arg(args, "--out") is None:
            args += ["--out", str(build / "results" / f"{tag}.json")]
        if trace == "1" and arg(args, "--spans") is None:
            args += ["--spans", str(build / "spans" / f"{tag}.jsonl")]

    proc = subprocess.Popen([str(binary)] + args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
