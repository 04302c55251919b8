"""Self-test of the benchmark's correctness gate and failure accounting.

Run from the repository root:

    python3 bench/selftest.py

It runs real CLI invocations on small inputs and checks that
  * correct answers pass the gate;
  * a tampered expected value is caught: exact text, a verify report and a
    brute-force spot check of a printed constituent;
  * a refused call (TooManyColumns) counts as failed and is timed as
    TIMEOUT_S, never as a fast call;
  * run.py exits non-zero without a result line when the package sources
    are missing.
Exit status 0 means every check held.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

from inputs import (  # noqa: E402  (needs the package on sys.path)
    Inputs,
    closed_call,
    coxeter,
    deform,
    period_call,
    transform,
    verify_call,
)


def caught(call) -> bool:
    """True when the gate rejects the call's output as a wrong answer."""
    try:
        run.run_call(call)
    except run.WrongAnswer:
        return True
    return False


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    inputs = Inputs(0, run.WORK)
    d4 = coxeter("D", 4)
    period = period_call("D4", inputs.file("D4", transform(d4.matrix, random.Random(0))), d4.period)
    verify = verify_call(coxeter("B", 3), 8)
    closed = closed_call(deform("Adeform", 3, (6, 3)))
    report = json.loads(verify.expected)
    report["rows"][5]["snf"] += 1
    refused = period_call("B5", inputs.file("B5", coxeter("B", 5).matrix), 2)

    checks = {
        "correct answers pass": all(run.run_call(c).ok for c in (period, verify, closed)),
        "tampered text caught": caught(dataclasses.replace(period, expected="rho = 4\n")),
        "tampered verify row caught": caught(dataclasses.replace(verify, expected=json.dumps(report))),
        "tampered spot count caught": caught(
            dataclasses.replace(closed, spot=((3, closed.spot[1][1] + 1),))
        ),
    }
    timings = run.Timings([refused])
    timings.add_pass(traced=False)
    checks["refused call counts as failed"] = (timings.attempted, timings.failed) == (1, 1)
    checks["refused call timed as TIMEOUT_S"] = timings.wall_s() == run.TIMEOUT_S

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subsets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    checks["no sources: non-zero exit, no result"] = (
        proc.returncode != 0 and '"correct"' not in proc.stdout
    )
    shutil.rmtree(bare)

    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
