"""Exact integer linear algebra: elementary divisors and lcm periods.

All arithmetic uses Python integers, so nothing here overflows or rounds.
Elementary divisors are computed by gcd-driven row and column elimination
(smallest-absolute-value pivot), which keeps intermediate entries small,
followed by a pairwise gcd/lcm pass that restores the divisibility chain;
diag(a, b) and diag(gcd(a, b), lcm(a, b)) are equivalent under unimodular
operations, so that pass preserves the divisor multiset.

The lcm period of a normal matrix S is

    rho_S = lcm over all nonempty column subsets J of e_{J, l(J)},

the last elementary divisor of each column submatrix.  The divisors of S_J
depend only on the lattice L_J spanned by the columns in J, so the subsets
are grouped by lattice: _lattice_table adds one column at a time and keeps,
per canonical row Hermite normal form of L_J, the signed count
sum (-1)^|J| and the smallest |J|.  Its size is the number of distinct
lattices, not 2^n, and every generic route (this period and the
inclusion-exclusion count in counting.snf_count) reads the same cached
table.  Refusing more than FULL_ENUMERATION_LIMIT columns is a policy kept
for callers, not a bound on this cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .arrangements import DeformSpec, IntMatrix
from .errors import IndexOutOfRange, InvalidParity, TooManyColumns

# Widest matrix lcm_period (without a cap) and snf_count accept.
FULL_ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class ElementaryDivisors:
    """Positive elementary divisors e_1 | e_2 | ... | e_rank of a matrix."""

    divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        divs = tuple(operator.index(v) for v in self.divisors)
        object.__setattr__(self, "divisors", divs)
        if any(v < 1 for v in divs):
            raise ValueError("elementary divisors must be positive")
        for a, b in zip(divs, divs[1:]):
            if b % a:
                raise ValueError("elementary divisors must form a chain")

    @property
    def rank(self) -> int:
        return len(self.divisors)


class PeriodResult(NamedTuple):
    """lcm-period value; exact=False marks a capped run (lower bound only)."""

    value: int
    exact: bool


def _diagonalize(rows: list[list[int]]) -> list[int]:
    """Reduce to an equivalent diagonal in place; return the nonzero diagonal.

    The diagonal entries are positive but not yet chained.
    """
    m, n = len(rows), len(rows[0])
    stop = min(m, n)
    diag: list[int] = []
    p = 0
    while p < stop:
        # Smallest nonzero absolute value in the active block becomes pivot.
        best, bi, bj = 0, -1, -1
        for i in range(p, m):
            row = rows[i]
            for j in range(p, n):
                v = row[j]
                if v:
                    if v < 0:
                        v = -v
                    if best == 0 or v < best:
                        best, bi, bj = v, i, j
                        if v == 1:
                            break
            if best == 1:
                break
        if bi < 0:
            break
        if bi != p:
            rows[p], rows[bi] = rows[bi], rows[p]
        if bj != p:
            for row in rows:
                row[p], row[bj] = row[bj], row[p]
        if rows[p][p] < 0:
            rp = rows[p]
            for j in range(p, n):
                rp[j] = -rp[j]
        while True:
            restart = False
            rp = rows[p]
            a = rp[p]
            for i in range(p + 1, m):
                ri = rows[i]
                v = ri[p]
                if not v:
                    continue
                k = v // a
                if k:
                    for j in range(p, n):
                        ri[j] -= k * rp[j]
                if ri[p]:
                    # 0 < remainder < a: promote it to the pivot and redo.
                    rows[p], rows[i] = ri, rp
                    restart = True
                    break
            if restart:
                continue
            rp = rows[p]
            a = rp[p]
            for j in range(p + 1, n):
                w = rp[j]
                if not w:
                    continue
                k = w // a
                if k:
                    for ri in rows:
                        ri[j] -= k * ri[p]
                if rp[j]:
                    for ri in rows:
                        ri[p], ri[j] = ri[j], ri[p]
                    restart = True
                    break
            if restart:
                continue
            break
        diag.append(rows[p][p])
        p += 1
    return diag


def _chain_fix(diag: Iterable[int]) -> list[int]:
    """Turn a positive diagonal into the chained elementary divisors.

    Each pairwise replacement (a, b) -> (gcd, lcm) preserves equivalence;
    once every entry divides all later ones the list is the divisor chain.
    """
    d = sorted(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_divisors(mat: IntMatrix) -> ElementaryDivisors:
    """Elementary divisors e_1 | ... | e_rank of an integer matrix."""
    rows = [list(row) for row in mat.entries]
    return ElementaryDivisors(tuple(_chain_fix(_diagonalize(rows))))


def column_submatrix(mat: IntMatrix, indices: Iterable[int]) -> IntMatrix:
    """Submatrix of the 1-based columns J, in increasing index order.

    Raises IndexOutOfRange when an index falls outside 1..n and ValueError
    for an empty index set.
    """
    J = sorted({operator.index(j) for j in indices})
    if not J:
        raise ValueError("column index set must be nonempty")
    if J[0] < 1 or J[-1] > mat.cols:
        raise IndexOutOfRange(
            f"column indices must lie in 1..{mat.cols}, got {J[0] if J[0] < 1 else J[-1]}"
        )
    return IntMatrix(tuple(tuple(row[j - 1] for j in J) for row in mat.entries))


def _hnf_add(
    basis: tuple[tuple[int, ...], ...], vec: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice of basis plus vec.

    A basis is m rows of length m: row p is zero or has a positive pivot at
    column p, and the entries above each pivot lie in [0, pivot).  The
    result has the same form, so equal lattices give equal tuples.
    """
    rows = [list(r) for r in basis]
    v = list(vec)
    for p, r in enumerate(rows):
        # Euclid on row p and v at column p; a zero row simply takes v.
        while v[p]:
            k = r[p] // v[p]
            r, v = v, [a - k * b for a, b in zip(r, v)]
        rows[p] = r if r[p] >= 0 else [-x for x in r]
    for p, r in enumerate(rows):
        if r[p]:
            for above in rows[:p]:
                k = above[p] // r[p]
                for j in range(p, len(r)):
                    above[j] -= k * r[j]
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=16)
def _lattice_table(mat: IntMatrix, cap: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(signed count, elementary divisors) of every lattice L_J.

    Covers the column subsets J with |J| <= cap, the empty one included
    (count 1, no divisors).  While it is built each lattice also keeps its
    smallest |J|, and one whose smallest |J| has reached cap is not
    extended, so the table holds exactly the lattices with smallest
    |J| <= cap.  The signed counts sum (-1)^|J| over all J of a lattice
    only when cap = n.  Lattices whose count cancels to 0 stay, because
    the lcm period ranges over every subset.
    """
    table = {((0,) * mat.rows,) * mat.rows: (1, 0)}
    for col in mat.columns():
        grown = dict(table)
        for basis, (count, size) in table.items():
            if size < cap:
                key = _hnf_add(basis, col)
                prev, least = grown.get(key, (0, size + 1))
                grown[key] = (prev - count, min(least, size + 1))
        table = grown
    return tuple(
        (count, tuple(_chain_fix(_diagonalize([list(r) for r in basis]))))
        for basis, (count, _) in table.items()
    )


def lcm_period(mat: IntMatrix, max_subset_size: int | None = None) -> PeriodResult:
    """lcm of the last elementary divisor over column subsets of the matrix.

    Without a cap this covers all nonempty subsets and is exact; it
    refuses matrices with more than FULL_ENUMERATION_LIMIT columns.  With
    max_subset_size = c it covers the subsets of size <= c and the result
    is only a lower bound (a divisor of the true period) unless c >= n.
    """
    n = mat.cols
    if max_subset_size is None:
        if n > FULL_ENUMERATION_LIMIT:
            raise TooManyColumns(
                f"too many columns for full enumeration: {n} > "
                f"{FULL_ENUMERATION_LIMIT}; pass max_subset_size for a lower bound"
            )
        cap = n
    else:
        cap = operator.index(max_subset_size)
        if cap < 1:
            raise ValueError("max_subset_size must be >= 1")
    table = _lattice_table(mat, min(cap, n))
    return PeriodResult(math.lcm(*(divs[-1] for _, divs in table if divs)), cap >= n)


def known_period(spec: DeformSpec, family: str) -> int:
    """Minimum period of a deformation family, by formula.

    Adeform: s_1 for t >= 1, else 1.  Ddeform: lcm(s_1, 2) for t >= 1,
    else 2; requires the parity split r to be declared.
    """
    if family == "Adeform":
        return spec.s[0] if spec.t else 1
    if family == "Ddeform":
        if spec.r is None:
            raise InvalidParity(
                "type-D deformation needs the even-prefix length r"
            )
        return math.lcm(spec.s[0], 2) if spec.t else 2
    raise ValueError(f"unknown deformation family {family!r}")
