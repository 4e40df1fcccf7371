#!/usr/bin/env python3
"""The she_server benchmark: build, then run one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds she_server and the load generator
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or .bench_build,
then runs perfbench/loadgen against a freshly spawned she_server.  The last
line of standard output is the result object; see perfbench/README.md for
the workloads and metrics.  Build output goes to standard error.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOADGEN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "server").is_dir():
        fail(f"no SHE source tree at {ROOT}")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "she_server", "she_loadgen"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over the program's sources, naming the code when git cannot."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check against a deliberately wrong oracle (must fail)")
    a = ap.parse_args()

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build(build_dir)
    work = build_dir / "runs" / f"{a.workload}-{a.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = build_dir / "traces"
    traces.mkdir(exist_ok=True)

    cmd = [str(build_dir / "she_loadgen"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--server", str(build_dir / "she" / "src" / "server" / "she_server"),
           "--work-dir", str(work),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if a.trace:
        cmd += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.json")]
    if a.smoke:
        cmd.append("--smoke")
    if a.wrong_reference:
        cmd.append("--wrong-reference")
    sys.stdout.flush()
    # Own process group: she_server children go down with it on a timeout.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: load generator timed out", file=sys.stderr)
        rc = 3
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
