"""Seeded benchmark inputs and their independently known answers.

Family matrices are sent through three seeded transforms that leave every
count unchanged: a unimodular change of basis S -> U*S (x -> U^T x permutes
(Z/q)^m), a column shuffle and column sign flips.  Their answers therefore
still come from the closed forms and known_period, while the entries and
column order the subset layer sees vary with the seed.  Random matrices get
their answers from brute force (counts) and from a naive every-subset lcm
(periods), both independent of the routes the CLI takes.

Everything here runs in set-up, outside the timed region, in a child of
run.py:

    python3 bench/inputs.py WORKLOAD SEED OUT.json [--smith]

writes the matrix files next to OUT.json and the calls with their expected
stdout into it; --smith adds the mean time of smith_divisors over a fixed
corpus of column submatrices of the subsets inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import re
import statistics
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from charquasi import (
    DeformSpec,
    IntMatrix,
    brute_force_count,
    chi_coxeter,
    chi_deform_a,
    chi_deform_d,
    column_submatrix,
    format_matrix,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    known_period,
    smith_divisors,
)
from run import Call

SMITH_CORPUS = 300  # column subsets per matrix of the subsets workload
SMITH_REPEATS = 5


@dataclass(frozen=True)
class Family:
    """A built-in arrangement: its CLI flags, matrix and exact answers."""

    label: str
    spec: str  # as `verify` prints it
    flags: tuple[str, ...]
    matrix: IntMatrix
    period: int
    chi: object  # k -> constituent Polynomial of the residue class of k


def coxeter(family: str, m: int) -> Family:
    qp = chi_coxeter(family, m)
    return Family(
        f"{family}{m}",
        f"{family} m={m}",
        ("--family", family, "--m", str(m)),
        gen_coxeter(family, m),
        qp.period,
        qp.constituent,
    )


def deform(family: str, m: int, s: tuple[int, ...], r: int | None = None) -> Family:
    spec = DeformSpec(m, s, r)
    text = ",".join(map(str, s))
    flags = ["--family", family, "--m", str(m), "--s", text]
    label, shown = f"{family} m={m} s={text}", f"{family} m={m} s=({text})"
    if family == "Ddeform":
        flags += ["--r", str(r)]
        label, shown = f"{label} r={r}", f"{shown} r={r}"
        mat, chi = gen_deform_d(spec), chi_deform_d
    else:
        mat, chi = gen_deform_a(spec), chi_deform_a
    return Family(
        label, shown, tuple(flags), mat, known_period(spec, family), lambda k: chi(spec, k)
    )


def quasi_text(fam: Family) -> str:
    """Exact stdout of `quasi` for a family: one line per residue class.

    Constituents depend only on gcd(k, rho), so each distinct class is
    evaluated once.
    """
    rho = fam.period
    by_gcd: dict[int, str] = {}
    lines = [f"period {rho}"]
    for k in range(1, rho + 1):
        g = math.gcd(k, rho)
        if g not in by_gcd:
            by_gcd[g] = str(fam.chi(g))
        lines.append(f"k={k}: {by_gcd[g]}")
    return "\n".join(lines) + "\n"


def transform(mat: IntMatrix, rng: random.Random) -> IntMatrix:
    """U*S for a random unimodular U, then shuffled and sign-flipped columns.

    U is two row shears times a signed row permutation: enough to change
    every entry pattern, mild enough that the SNF cost stays within a few
    per cent across seeds.
    """
    rows = [list(r) for r in mat.entries]
    for _ in range(2):
        i, j = rng.sample(range(mat.rows), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows = [r if rng.random() < 0.5 else [-v for v in r] for r in rows]
    cols = list(zip(*rows))
    rng.shuffle(cols)
    cols = [c if rng.random() < 0.5 else tuple(-v for v in c) for c in cols]
    return IntMatrix.from_columns(cols)


def random_matrix(m: int, n: int, rng: random.Random, bound: int = 3) -> IntMatrix:
    cols = []
    while len(cols) < n:
        col = tuple(rng.randint(-bound, bound) for _ in range(m))
        if any(col):
            cols.append(col)
    return IntMatrix.from_columns(cols)


def naive_period(mat: IntMatrix) -> int:
    """lcm of the last elementary divisor over every nonempty column subset."""
    acc = 1
    for size in range(1, mat.cols + 1):
        for J in combinations(range(1, mat.cols + 1), size):
            divs = smith_divisors(column_submatrix(mat, J)).divisors
            acc = math.lcm(acc, divs[-1])
    return acc


def period_call(label: str, path: str, rho: int) -> Call:
    return Call(f"period {label}", ("period", path), f"rho = {rho}\n")


def count_call(label: str, path: str, q: int, count: int) -> Call:
    return Call(f"count snf {label}", ("count", path, "--method", "snf", "--q", str(q)), f"{count}\n")


def interpolate_call(fam: Family, path: str | None = None) -> Call:
    """quasi --method interpolate on a matrix file, or on the family flags."""
    source = (path,) if path else fam.flags
    return Call(f"quasi interp {fam.label}", ("quasi", *source, "--method", "interpolate"), quasi_text(fam))


def verify_call(fam: Family, qmax: int) -> Call:
    rows = []
    for q in range(1, qmax + 1):
        v = fam.chi(q)(q)
        rows.append({"q": q, "brute": v, "snf": v, "closed": v})
    expected = {"spec": fam.spec, "rho": fam.period, "rows": rows, "verdict": "pass"}
    return Call(
        f"verify {fam.label}",
        ("verify", "--json", *fam.flags, "--qmax", str(qmax)),
        json.dumps(expected),
        kind="verify",
    )


def closed_call(fam: Family, spot_moduli: tuple[int, ...] = (2, 3, 4, 5, 6)) -> Call:
    spot = tuple((q, brute_force_count(fam.matrix, q)) for q in spot_moduli)
    return Call(
        f"quasi closed {fam.label}",
        ("quasi", *fam.flags, "--method", "closed-form"),
        quasi_text(fam),
        spot=spot,
    )


class Inputs:
    """Writes seeded matrix files into a work directory and builds the batches."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def file(self, label: str, mat: IntMatrix) -> str:
        path = self.workdir / (re.sub(r"[^A-Za-z0-9]+", "_", label) + ".txt")
        path.write_text(format_matrix(mat))
        return str(path)

    def subset_matrices(self) -> list[tuple[str, IntMatrix, Family | None]]:
        """(label, matrix, family or None) for each input of the subsets workload."""
        out = []
        for fam in (coxeter("B", 4), deform("Ddeform", 4, (6, 3, 1), 1)):
            out.append((fam.label, transform(fam.matrix, self.rng), fam))
        for m, n in ((4, 13), (3, 14)):
            out.append((f"random {m}x{n}", random_matrix(m, n, self.rng), None))
        return out

    def probes(self) -> list[Call]:
        """Two tiny invocations that touch every layer once.

        Each workload ends with them, so no per-layer time reads exactly 0
        on a workload where its layer otherwise never runs.
        """
        b3 = coxeter("B", 3)
        return [
            interpolate_call(b3, self.file(b3.label, transform(b3.matrix, self.rng))),
            verify_call(coxeter("B", 2), 4),
        ]

    def subsets(self, q: int = 12) -> list[Call]:
        calls = []
        for label, mat, fam in self.subset_matrices():
            path = self.file(label, mat)
            if fam is not None:
                rho, count = fam.period, fam.chi(q)(q)
            else:
                rho, count = naive_period(mat), brute_force_count(mat, q)
            calls += [period_call(label, path, rho), count_call(label, path, q, count)]
        return calls + self.probes()

    def interpolate(self) -> list[Call]:
        calls = [
            interpolate_call(fam, self.file(fam.label, transform(fam.matrix, self.rng)))
            for fam in (
                deform("Ddeform", 4, (6, 3, 1), 1),
                deform("Adeform", 3, (16, 8, 4)),
                deform("Adeform", 4, (6, 3, 1)),
            )
        ]
        return calls + [interpolate_call(coxeter("B", 5))] + self.probes()

    def verify(self) -> list[Call]:
        return [
            verify_call(coxeter("B", 4), 16),
            verify_call(deform("Adeform", 4, (12, 6, 3, 1)), 24),
            closed_call(deform("Ddeform", 6, (13860, 4620, 2310, 1155, 385), 3)),
            closed_call(deform("Adeform", 6, (13860, 4620, 2310, 1155))),
        ] + self.probes()


WORKLOADS = {
    "subsets": Inputs.subsets,
    "interpolate": Inputs.interpolate,
    "verify": Inputs.verify,
}


def smith_divisors_us(seed: int, workdir: Path) -> float:
    """Mean microseconds per smith_divisors call over a fixed corpus.

    The corpus is SMITH_CORPUS seeded column submatrices of each matrix of
    the subsets workload for this seed; the median of SMITH_REPEATS timed
    sweeps is reported.
    """
    rng = random.Random(seed)
    corpus = []
    for _, mat, _ in Inputs(seed, workdir).subset_matrices():
        for _ in range(SMITH_CORPUS):
            J = rng.sample(range(1, mat.cols + 1), rng.randint(1, mat.cols))
            corpus.append(column_submatrix(mat, J))
    sweeps = []
    for _ in range(SMITH_REPEATS):
        start = time.perf_counter()
        for sub in corpus:
            smith_divisors(sub)
        sweeps.append((time.perf_counter() - start) / len(corpus) * 1e6)
    return statistics.median(sweeps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs and answers.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--smith", action="store_true", help="also time smith_divisors")
    args = parser.parse_args(argv)
    calls = WORKLOADS[args.workload](Inputs(args.seed, args.out.parent))
    data = {"calls": [dataclasses.asdict(c) for c in calls]}
    if args.smith:
        data["smith_divisors_us"] = smith_divisors_us(args.seed, args.out.parent)
    args.out.write_text(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
