"""charquasi benchmark: the CLI timed end to end, or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload subsets --seed 1 --seconds 30 --trace 0

A workload is a fixed batch of `python -m charquasi.cli ...` invocations
(see inputs.py), run one after another: a closed loop with one client.
Every invocation is a fresh process, so the package's lru_caches start
cold, as they do for a user.  Inputs come from --seed; every stdout is
compared with an independently known answer, and a wrong answer aborts the
run (exit 1, no result line).  An invocation that exits non-zero, is
refused or times out counts as failed and is timed as TIMEOUT_S, never as a
fast call.

Set-up (inputs and their answers) runs in a child process: a child's
max-RSS starts at its parent's resident size, so this process never
imports the package or numpy and stays small.  After one untimed warm-up
pass the batch repeats until --seconds have passed.  wall_s is the sum over
invocations of each one's median time over passes; start-up is timed
before every pass and setup_s is the median of those start-ups.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
untraced and traced passes alternate (tracing.py) and the result holds the
per-layer metrics.  Either way every metric is printed by name and unit
above the result line, with the share of failed invocations.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
TIMEOUT_S = 60.0  # an invocation still running after this is killed
MIN_PASSES = 3
SETUP_LAUNCHES = 3  # timed start-ups before each pass

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "intlinalg.lcm_period_s": "s",
    "intlinalg.lcm_period_calls": "count",
    "intlinalg.subsets_bound": "count",
    "intlinalg.smith_divisors_us": "us",
    "counting.snf_first_s": "s",
    "counting.snf_hot_ms": "ms",
    "counting.snf_calls": "count",
    "counting.brute_s": "s",
    "counting.brute_calls": "count",
    "counting.brute_points": "count",
    "counting.brute_mpts_per_s": "Mpts/s",
    "counting.interpolate_self_s": "s",
    "counting.interp_samples": "count",
    "closedforms.chi_s": "s",
    "closedforms.constituents": "count",
    "arrangements.self_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the stdout it must print.

    kind "text": stdout must equal `expected` byte for byte.
    kind "verify": stdout is `verify --json`; everything but "ms" must equal
    the JSON object `expected`.
    `spot` pairs small moduli q with brute-force counts that the printed
    constituent of class q must reproduce at q.
    """

    label: str
    argv: tuple[str, ...]
    expected: str
    kind: str = "text"
    spot: tuple[tuple[int, int], ...] = ()


class WrongAnswer(Exception):
    """An invocation printed something other than the known answer."""


@dataclass
class Sample:
    """One invocation: wall seconds, success, that child's own rusage and,
    when traced, its layer totals (tracing.invocation_totals)."""

    wall_s: float
    ok: bool
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    totals: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def invoke(cmd: list[str], out_path: Path) -> tuple[float, int, os.struct_rusage]:
    """Run cmd to completion with stdout to out_path.

    Returns wall seconds, exit code and the rusage of this child alone
    (wait4), so max-RSS is per invocation, not across the batch.
    """
    with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def poly_at(text: str, q: int) -> int:
    """Value at q of a polynomial printed as e.g. 'q^3 - 6*q^2 + 11*q - 6'."""
    total, sign = 0, 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coef, has_q, power = tok.partition("q")
        if has_q:
            c = int(coef.rstrip("*")) if coef else 1
            total += sign * c * q ** (int(power[1:]) if power else 1)
        else:
            total += sign * int(tok)
    return total


def check(call: Call, stdout: str) -> None:
    """Raise WrongAnswer unless stdout is the known answer of the call."""
    if call.kind == "verify":
        try:
            got = json.loads(stdout)
        except ValueError:
            raise WrongAnswer(f"{call.label}: stdout is not one JSON object") from None
        if isinstance(got, dict):
            got.pop("ms", None)
        if got != json.loads(call.expected):
            raise WrongAnswer(f"{call.label}: verify report differs from the known answer")
    elif stdout != call.expected:
        got, want = stdout.splitlines(), call.expected.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        raise WrongAnswer(f"{call.label}: stdout differs from the known answer at line {line + 1}")
    lines = stdout.splitlines()
    for q, count in call.spot:
        printed = lines[q].split(": ", 1)[1]  # line q holds "k=q: <constituent>"
        if poly_at(printed, q) != count:
            raise WrongAnswer(f"{call.label}: constituent k={q} at q={q} disagrees with brute force")


def run_call(call: Call, traced: bool = False) -> Sample:
    out = WORK / "stdout.txt"
    spans_path = WORK / "spans.json"
    if traced:
        cmd = [PY, str(BENCH / "tracing.py"), str(spans_path), *call.argv]
    else:
        cmd = [PY, "-m", "charquasi.cli", *call.argv]
    wall, code, usage = invoke(cmd, out)
    stdout = out.read_text()
    if stdout or code == 0:
        check(call, stdout)
    if code != 0:
        return Sample(TIMEOUT_S, ok=False)
    sample = Sample(wall, True, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)
    if traced:
        sample.totals = tracing.invocation_totals(json.loads(spans_path.read_text()))
        sample.totals["cpu_s"] = sample.cpu_s
    return sample


class Timings:
    """Samples per invocation of the batch, over all passes of one kind."""

    def __init__(self, calls: list[Call]):
        self.calls = calls
        self.samples: list[list[Sample]] = [[] for _ in calls]

    def add_pass(self, traced: bool) -> None:
        for call, per_call in zip(self.calls, self.samples):
            per_call.append(run_call(call, traced))

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(not x.ok for s in self.samples for x in s)

    def wall_s(self) -> float:
        """Sum over invocations of each one's median time over passes."""
        return sum(statistics.median(x.wall_s for x in s) for s in self.samples)

    def pass_seconds(self) -> list[float]:
        """Total wall seconds of each pass."""
        return [sum(p) for p in zip(*([x.wall_s for x in s] for s in self.samples))]

    def peak_rss_mb(self) -> float:
        """Largest per-invocation median of max-RSS over successful passes."""
        ok = [[x.rss_mb for x in s if x.ok] for s in self.samples]
        return max((statistics.median(r) for r in ok if r), default=0.0)


def import_seconds() -> float:
    """Wall seconds of one fresh interpreter through `import charquasi.cli`."""
    wall, code, _ = invoke([PY, "-c", "import charquasi.cli"], WORK / "stdout.txt")
    if code != 0:
        raise RuntimeError("`import charquasi.cli` failed: " + (WORK / "stderr.txt").read_text())
    return wall


def measure(calls: list[Call], seconds: float, trace: bool) -> tuple[Timings, Timings | None, float]:
    """Repeat the batch for `seconds`; with trace, alternate untraced and traced passes.

    Before every pass SETUP_LAUNCHES start-ups are timed, so start-up is
    sampled across the whole run; the median of them is returned.
    """
    plain = Timings(calls)
    traced = Timings(calls) if trace else None
    setup: list[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        begun = time.perf_counter()
        setup += [import_seconds() for _ in range(SETUP_LAUNCHES)]
        plain.add_pass(False)
        if traced is not None:
            traced.add_pass(True)
        passes += 1
        took = time.perf_counter() - begun
        # Stop at the pass boundary nearest to `seconds`.
        if passes >= MIN_PASSES and time.perf_counter() - start + took / 2 > seconds:
            return plain, traced, statistics.median(setup)


def prepare(workload: str, seed: int, trace: bool) -> tuple[list[Call], float | None]:
    """Inputs and answers from a child running inputs.py; see the module docstring."""
    out = WORK / "calls.json"
    cmd = [PY, str(BENCH / "inputs.py"), workload, str(seed), str(out)] + (["--smith"] if trace else [])
    _, code, _ = invoke(cmd, WORK / "stdout.txt")
    if code != 0:
        raise RuntimeError("set-up failed: " + (WORK / "stderr.txt").read_text())
    data = json.loads(out.read_text())
    calls = [Call(c["label"], tuple(c["argv"]), c["expected"], c["kind"], tuple(map(tuple, c["spot"])))
             for c in data["calls"]]
    return calls, data.get("smith_divisors_us")


def layer_report(traced: Timings, plain: Timings) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each pass's layer sums."""
    per_pass = []
    for p in range(len(traced.samples[0])):
        totals: dict[str, float] = {}
        for s in traced.samples:
            for k, v in s[p].totals.items():
                totals[k] = totals.get(k, 0.0) + v
        per_pass.append(tracing.layer_metrics(totals))
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    # Traced and untraced passes alternate; pairing them cancels most host drift.
    pairs = zip(traced.pass_seconds(), plain.pass_seconds())
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)

    print("\nper-invocation breakdown (median over traced passes, seconds)")
    cols = ("lcm_period_s", "snf_first_s", "snf_hot_s", "brute_s", "interp_self_s", "chi_s",
            "cli_self_s", "library_s")
    print(f"{'invocation':40s}{'wall':>9s}" + "".join(f"{c[:-2]:>12s}" for c in cols))
    for call, s in zip(traced.calls, traced.samples):
        vals = [statistics.median(x.wall_s for x in s)]
        vals += [statistics.median(x.totals.get(c, 0.0) for x in s) for c in cols]
        print(f"{call.label[:40]:40s}{vals[0]:9.4f}" + "".join(f"{v:12.4f}" for v in vals[1:]))
    return metrics


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_rev": git_rev(),
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="subsets, interpolate or verify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "charquasi" / "cli.py").is_file():
        print(f"error: no charquasi sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        set_up = time.perf_counter()
        calls, smith_us = prepare(args.workload, args.seed, bool(args.trace))
        print(f"inputs and answers ready in {time.perf_counter() - set_up:.2f} s")
        Timings(calls).add_pass(False)  # warm-up: bytecode and file cache, untimed
        plain, traced, setup_s = measure(calls, args.seconds, bool(args.trace))
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    end_to_end = {"wall_s": plain.wall_s(), "setup_s": setup_s, "peak_rss_mb": plain.peak_rss_mb()}
    per_layer = {}
    if traced is not None:
        per_layer = layer_report(traced, plain)
        per_layer["intlinalg.smith_divisors_us"] = smith_us

    timings = [plain] + ([traced] if traced else [])
    attempted = sum(t.attempted for t in timings)
    failed = sum(t.failed for t in timings)
    print(f"\nworkload {args.workload}, seed {args.seed}: {len(calls)} invocations per pass, "
          f"{len(plain.samples[0])} timed passes, {failed} of {attempted} failed")
    print(f"{'invocation':44s}{'min_s':>10s}{'median_s':>10s}{'max_s':>10s}{'rss_mb':>10s}")
    for call, s in zip(calls, plain.samples):
        walls = [x.wall_s for x in s]
        rss = max((x.rss_mb for x in s if x.ok), default=0.0)
        print(f"{call.label[:44]:44s}{min(walls):10.4f}{statistics.median(walls):10.4f}"
              f"{max(walls):10.4f}{rss:10.1f}")
    print("env " + json.dumps(environment()))
    print(f"\n{'failed_frac':32s} {failed / attempted:16.6f} share")
    for name, value in end_to_end.items():
        print(f"{name:32s} {value:16.6f} {END_TO_END[name]}")
    for name in PER_LAYER:
        if name in per_layer:
            print(f"{name:32s} {per_layer[name]:16.6f} {PER_LAYER[name]}")
    metrics, units = (per_layer, PER_LAYER) if traced else (end_to_end, END_TO_END)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
