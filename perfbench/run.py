#!/usr/bin/env python3
"""Build the gsview benchmark from source and run one workload once.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: colocated-maint, warehouse-tcp, write-read (see README.md).
The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built into
$CARGO_TARGET_DIR, or .bench_build when that is unset, with every CPU
available; the workload then runs pinned to one CPU (the highest one
this process may use). With --trace 1
the spans of the traced phase are written to
<target dir>/perfbench-traces/<workload>-seed<n>.tsv.

The last line of standard output is the result: one JSON object with
the keys correct, attempted, failed and metrics. The line before it is
the run's provenance. Build output goes to standard error. The exit
code is 0 only when a result was printed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("colocated-maint", "warehouse-tcp", "write-read")


def source_rev():
    """The git revision when run from a git checkout, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=20,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
        cwd=ROOT,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "gsview-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", source_rev(),
    ]
    if args.trace:
        cmd += [
            "--trace-out",
            os.path.join(target, "perfbench-traces", f"{args.workload}-seed{args.seed}.tsv"),
        ]
    # One CPU for the whole measured process: see "One CPU" in README.md.
    cpus = os.sched_getaffinity(0)
    cmd += ["--nproc", str(len(cpus)), "--pinned-cpu", str(max(cpus))]
    os.sched_setaffinity(0, {max(cpus)})
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
