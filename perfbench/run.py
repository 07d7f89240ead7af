#!/usr/bin/env python3
"""Wire-to-kernel benchmark of the autobi_serve daemon.

Run from the repository root:

    python3 perfbench/run.py --workload star_session --seed 1 --seconds 15 --trace 0

Builds the daemon and the benchmark driver from source into .bench_build/
(Release, first run only), then runs one measurement and prints the result
as the last line of standard output. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the daemon and the driver."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "autobi_serve",
         "autobi_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    serve = os.path.join(BUILD_DIR, "autobi_src", "serve", "autobi_serve")
    driver = os.path.join(BUILD_DIR, "autobi_perfbench")
    for path in (serve, driver):
        if not os.access(path, os.X_OK):
            raise RuntimeError(f"build did not produce {path}")
    return serve, driver


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["star_session", "lake_session", "tpch_keys"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        serve, driver = build()
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    tmp_root = os.path.join(BUILD_DIR, "tmp")
    records = os.path.join(BUILD_DIR, "records")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    record = os.path.join(
        records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", serve, "--workdir", workdir, "--record", record,
           "--build_type", BUILD_TYPE]
    # Own process group: on a timeout the driver and its daemon go together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            time.sleep(1)
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
