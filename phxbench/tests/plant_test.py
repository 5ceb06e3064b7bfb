#!/usr/bin/env python3
"""End-to-end test of phxbench's checks: planted faults must fail the run.

Run from the root of a checkout (it builds through run.py):

    python3 phxbench/tests/plant_test.py

It runs short runs of each workload with no fault (must be correct), with a
skipped acknowledgement (the checks against the shadow of acknowledged
writes must catch it), and with a shifted resume row (the resumed-report
check must catch it), then the unit test of the checks.
"""

import json
import os
import subprocess
import sys

SECONDS = "2"


def run(workload, plant=None):
    cmd = [sys.executable, "phxbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", "0"]
    if plant:
        cmd += ["--plant", plant]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    failures = []
    cases = [(w, None, True) for w in ("oltp", "report_pinned", "crash_resume")]
    cases += [(w, "skip_ack", False)
              for w in ("oltp", "report_pinned", "crash_resume")]
    cases += [(w, "shift_resume", False)
              for w in ("oltp", "report_pinned", "crash_resume")]
    for workload, plant, want in cases:
        r = run(workload, plant)
        ok = r["correct"] == want and r["failed"] == 0
        print(f"{workload:14s} plant={plant or '-':13s} correct={r['correct']}"
              f"  {'ok' if ok else 'WRONG'}")
        if not ok:
            failures.append((workload, plant))
    # run.py has built the unit test of the checks by now.
    unit = subprocess.run([os.path.join(target, "phxbench",
                                        "phxbench_checks_test")])
    if unit.returncode != 0:
        failures.append(("checks_test", None))
    if failures:
        print(f"FAILED: {failures}")
        return 1
    print("plant_test: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
