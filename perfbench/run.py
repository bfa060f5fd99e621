#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs it.

    python3 perfbench/run.py --workload fig5_sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --regen-reference
    python3 perfbench/run.py --check-sweep-json sweep.json

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and compiles the library straight from src/, so
the first run of a fresh checkout takes a minute longer. Everything
else on the command line is passed to the binary; its last line of
stdout is the result object. Build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; "
             "run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    out = build_dir()
    try:
        exe = build(out)
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")

    # Socket paths are short and relative to the checkout (sun_path
    # holds ~100 bytes); the binary runs with the checkout as its cwd.
    work = out / f"work-{os.getpid()}"
    extra = ["--reference", str(BENCH / "reference.json"),
             "--work-dir", os.path.relpath(work, ROOT)]
    workload = arg_value(args, "--workload")
    if arg_value(args, "--trace") == "1" and workload:
        extra += ["--spans-out", str(out / f"spans-{workload}.json")]
    try:
        proc = subprocess.run([str(exe)] + args + extra, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
