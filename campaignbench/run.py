#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campaignbench/run.py --selftest

Run from the repository root. Builds the C++ benchmark binary from source into
.bench_build/ on first use (CMake, RelWithDebInfo), runs it, and prints its
result: the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. When digests.json holds the committed outcome
digest for (workload, seed), the binary checks every repetition against it.
See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "campaignbench")
WORKLOADS = ("fwd_grade", "icu_hdcu_grade", "seu_soak")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A timed run is stopped, not waited on, once it takes this long.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"campaignbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, cleanup=None):
    with open(log_path, "ab") as log:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        fail(f"build step failed ({' '.join(cmd)}), see {log_path}:\n{tail}")


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        # A failed configure leaves no cache behind, so the next run retries.
        run_logged([cmake, "-S", HERE, "-B", CMAKE_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path, cleanup=CMAKE_DIR)
    run_logged([cmake, "--build", CMAKE_DIR, "--target", "campaignbench",
                "-j", str(os.cpu_count() or 1)], log_path)


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed))


def run_binary(args, timeout_s):
    """Run the benchmark binary, pass its stderr through, return (rc, stdout)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark binary exceeded {timeout_s:.0f} s and was stopped")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny variant of every workload: 1 vs nproc threads, traced vs untraced")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    work_dir = os.path.join(BUILD, "work")
    if a.selftest:
        rc, out = run_binary(["--selftest", "--work-dir", work_dir], 900)
        sys.stdout.write(out)
        sys.exit(rc)

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work-dir", work_dir]
    digest = expected_digest(a.workload, a.seed)
    if digest is not None:
        args += ["--expect-digest", digest]
    rc, out = run_binary(args, RUN_BUDGET_S)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        fail(f"benchmark binary exited with code {rc}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("benchmark binary printed a malformed result")
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
