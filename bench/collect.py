"""Repeat bench/run.py over seeds and report each metric's median and spread.

Run from the repository root:

    python3 bench/collect.py --workloads subsets,interpolate,verify --seeds 1-10
    python3 bench/collect.py --workloads verify --seeds 1-3 --trace 1 --out FILE

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median; BENCHMARK.json fixes the bound it has to stay under.  With --out
the runs, medians and spreads are written as JSON together with the
environment record of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    env = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
                         "metrics": values})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name] for r in runs]
            row = {"median": statistics.median(vals), "min": min(vals), "max": max(vals)}
            if len(vals) >= 2:
                row["spread"] = spread(vals)
            summary[name] = row
            flag = ""
            if name in bounds and "spread" in row:
                flag = "ok" if row["spread"] < bounds[name] / 3 else f"ABOVE bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {workload:12s} {name:32s} median {row['median']:12.5g} "
                  f"spread {row.get('spread', float('nan')):7.4f} {flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    report["env"] = env
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
