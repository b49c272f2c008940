#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

Builds sdd_bench from the sources of the checkout it sits in (the first run
compiles the libraries; later runs find nothing to do), then runs it with the
compute thread count pinned and every other SDD_* setting cleared:

    python3 sdd_bench/run.py --workload chat --seed 1 --seconds 12 --trace 0

Arguments are passed through to sdd_bench. With --trace 1 and no --spans the
spans land in .bench_build/spans/<workload>.jsonl. Build output goes to
stderr, so the last line of stdout is sdd_bench's JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "sdd_bench")
THREADS = "2"  # results are only comparable at one pinned thread count (README.md)


def build():
    # Configure until a build system exists: a failed configure leaves a cache
    # behind but no build files.
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "sdd_bench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "sdd_bench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "sdd_bench")


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDD_")}
    env["SDD_THREADS"] = THREADS
    args = list(args)
    if option(args, "--trace") == "1" and option(args, "--spans") is None:
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        workload = option(args, "--workload") or "run"
        args += ["--spans", os.path.join(spans, workload + ".jsonl")]
    if option(args, "--workdir") is None:
        args += ["--workdir", os.path.join(OUT, "work")]
    return subprocess.run([binary] + args, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
