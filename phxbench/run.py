#!/usr/bin/env python3
"""phxbench entry point: build from source, run one workload, relay the result.

Run from the root of a checkout:

    python3 phxbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

It configures and builds phxbench/CMakeLists.txt (the repository's libraries,
phoenixd and the phxbench binary) into $CARGO_TARGET_DIR/phxbench, default
.bench_build/phxbench, then runs the binary. The binary's last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; this script
re-prints it as the last line. Every process the run starts (the binary and
each phoenixd it spawns) shares one process group, which is killed and
reaped before exit. Exit status is non-zero, with no result line, if the
build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures and builds (incrementally); returns the binary's path or None."""
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", build_dir, "-j", BUILD_JOBS]
    for step in (configure, make):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "phxbench")
    return binary if os.access(binary, os.X_OK) else None


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            # fields[0] is the state, fields[2] the process group.
            if int(fields[2]) == pgid and fields[0] != "Z":
                return True
        except (OSError, IndexError, ValueError):
            continue
    return False


def kill_group(pgid):
    """SIGKILLs every process left in the run's group and waits them out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("skip_ack", "shift_resume"),
                    help="plant a fault the checks must catch (tests only)")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target_dir, "phxbench")
    binary = build(bench_dir, build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target_dir, "phxbench-out"),
           "--data", os.path.join(target_dir, "phxbench-data")]
    if args.plant:
        cmd += ["--plant", args.plant]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        kill_group(proc.pid)

    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"phxbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("phxbench printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
