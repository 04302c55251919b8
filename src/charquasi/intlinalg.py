"""Exact integer linear algebra: elementary divisors and lcm periods.

All arithmetic uses Python integers, so nothing here overflows or rounds.
One elimination routine, _hnf_add, does all the work: it adds a vector to
the canonical row Hermite normal form of a lattice.  Elementary divisors
come from that form by alternating row and column Hermite forms (after
Kannan and Bachem) until every pivot divides its row; the pivots are then
an equivalent diagonal, and a pairwise gcd/lcm pass restores the
divisibility chain (diag(a, b) and diag(gcd(a, b), lcm(a, b)) are
equivalent under unimodular operations, so it preserves the divisor
multiset).

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
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

from .arrangements import DeformSpec, IntMatrix, _Value
from .errors import IndexOutOfRange, InvalidParity, TooManyColumns

# Widest matrix lcm_period (without a cap) and snf_count accept.
FULL_ENUMERATION_LIMIT = 24


class ElementaryDivisors(_Value):
    """Positive elementary divisors e_1 | e_2 | ... | e_rank of a matrix."""

    __slots__ = ("divisors",)

    def __init__(self, divisors: Iterable[int]) -> None:
        divs = tuple(operator.index(v) for v in divisors)
        if any(v < 1 for v in divs):
            raise ValueError("elementary divisors must be positive")
        for a, b in zip(divs, divs[1:]):
            if b % a:
                raise ValueError("elementary divisors must form a chain")
        object.__setattr__(self, "divisors", divs)

    @property
    def rank(self) -> int:
        return len(self.divisors)


class PeriodResult(NamedTuple):
    """lcm-period value; exact=False marks a capped run (lower bound only)."""

    value: int
    exact: bool


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
    return ElementaryDivisors(_basis_divisors(_span(mat.rows, mat.columns())))


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
    result has the same form, so equal lattices give equal tuples; when
    vec already lies in the lattice it is basis itself.
    """
    rows = list(basis)
    v = vec
    first = len(rows)
    for p, r in enumerate(rows):
        if v[p] and r[p] and v[p] % r[p] == 0:
            # The pivot divides the entry: one step, and row p stays.
            k = v[p] // r[p]
            v = [a - k * b for a, b in zip(v, r)]
        elif v[p]:
            # Euclid on row p and v at column p; a zero row simply takes v.
            while v[p]:
                k = r[p] // v[p]
                r, v = v, [a - k * b for a, b in zip(r, v)]
            rows[p] = r if r[p] >= 0 else [-x for x in r]
            first = min(first, p)
    if first == len(rows):
        return basis
    # Rows above the first changed pivot were reduced against each other.
    # Row p is zero left of column p, so whole-row updates touch only
    # columns p and up.
    for p in range(first, len(rows)):
        r = rows[p]
        if r[p]:
            for i in range(p):
                k = rows[i][p] // r[p]
                if k:
                    rows[i] = [a - k * b for a, b in zip(rows[i], r)]
    return tuple(map(tuple, rows))


def _span(m: int, vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice the vectors span in Z^m."""
    return reduce(_hnf_add, vectors, ((0,) * m,) * m)


def _basis_divisors(basis: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Elementary divisors of the lattice of a row Hermite normal form.

    A unit pivot has zeros above it, so column operations clear its row:
    it splits off as a divisor 1, and deleting its row and column leaves a
    Hermite form of the rest.  Once every nonzero pivot divides the entries
    to its right in its row, column operations alone clear those entries
    (top row first; rows with a zero pivot are zero), so the nonzero pivots
    are an equivalent diagonal.  Until then the basis is replaced by the
    Hermite form of its columns, an equivalent matrix (the transpose times
    a unimodular one).  That ends: the first unsettled pivot drops to the
    gcd of its row each round, and a settled pivot becomes isolated, its
    row and column zero apart from itself, and stays so.
    """
    keep = [p for p, r in enumerate(basis) if r[p] != 1]
    units = (1,) * (len(basis) - len(keep))
    basis = tuple(tuple(basis[i][j] for j in keep) for i in keep)
    m = len(basis)
    while any(r[p] and any(v % r[p] for v in r[p + 1 :]) for p, r in enumerate(basis)):
        basis = _span(m, zip(*basis))
    return units + tuple(_chain_fix(r[p] for p, r in enumerate(basis) if r[p]))


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
    table = {_span(mat.rows, ()): (1, 0)}
    for col in mat.columns():
        grown = dict(table)
        for basis, (count, size) in table.items():
            if size < cap:
                key = _hnf_add(basis, col)
                prev, least = grown.get(key, (0, size + 1))
                grown[key] = (prev - count, min(least, size + 1))
        table = grown
    return tuple((count, _basis_divisors(basis)) for basis, (count, _) in table.items())


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
                f"{FULL_ENUMERATION_LIMIT}; for a lower bound pass max_subset_size "
                "(charquasi period --max-subset-size N on the command line)"
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
