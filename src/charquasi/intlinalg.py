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

the last elementary divisor of each column submatrix: the exponent of
F_J/L_J, where L_J is the lattice the columns in J span and F_J its
saturation (its rational span meet Z^m).  Only bases matter:

- a dependent J has the same saturation F as a maximal independent
  B in J, and L_B lies in L_J, so F/L_J is a quotient of F/L_B;
- for independent B in B', F_B/L_B -> F_B'/L_B' is injective, since a
  point of F_B with integer coordinates over B' has none outside B.

So rho_S is the lcm over the independent sets of size rank S, and under a
cap c < rank S the lcm over subsets of size <= c is the lcm over the
independent sets of size c.  lcm_period grows a frontier of the lattices
of independent sets, adding a column only when it raises the rank, and
takes divisors only at the top rank.  There it first computes, without
building the Hermite form, a gcd of maximal minors of the new lattice's
generators (_minors_gcd).  The last divisor divides it, so when it divides
the lcm so far the lattice is skipped.

The inclusion-exclusion count of counting.snf_count sums over all subsets,
grouped by lattice: _lattice_table adds one column at a time and keeps,
per canonical row Hermite normal form of L_J, the signed count
sum (-1)^|J|; that key is what merges the subsets that span one lattice.
A lattice whose count is 0 adds nothing to the lattices it would extend,
so it is not extended, and its divisors are not taken.  The term of a
lattice, c * q^(m - rank) * prod gcd(e_i, q), depends on it through its
rank and its elementary divisors > 1 alone, so the cached table holds one
entry per distinct term, the counts of its lattices summed, and drops a
term whose counts cancel.  B4, D5 and D6 span 164, 428 and 2 781 lattices
with a nonzero count and give 9, 11 and 15 terms; nothing here bounds
either number by the column count.

Each walk is one dict keyed by canonical Hermite form, grown in place:
a column pass reads a snapshot of the dict's items, so the lattices it
adds wait for the next column, and the size of the walk is len() of the
dict.  The frontier keeps its top-rank lattices there too, at rank top,
and never extends them.

One refusal is left: lcm_period without a cap refuses more than
FULL_ENUMERATION_LIMIT columns.  It is a policy, not a cost (a cap of
rank S or more walks the same frontier and is exact); bench/selftest.py
pins it as its refused call until a lattice budget replaces it.
"""

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce

from .arrangements import IntMatrix, _Value
# Kept because TRACED in bench/tracing.py looks known_period up in this module.
from .arrangements import known_period
from .errors import CharQuasiError, IndexOutOfRange, TooManyColumns

# Widest matrix lcm_period accepts without a cap.
FULL_ENUMERATION_LIMIT = 24


class ElementaryDivisors(_Value):
    """Positive elementary divisors e_1 | e_2 | ... | e_rank of a matrix.

    Kept because bench/inputs.py:naive_period reads smith_divisors(...).divisors.
    """

    __slots__ = ("divisors",)

    def __init__(self, divisors: Iterable[int]) -> None:
        divs = tuple(operator.index(v) for v in divisors)
        if any(v < 1 for v in divs):
            raise CharQuasiError("elementary divisors must be positive")
        for a, b in zip(divs, divs[1:]):
            if b % a:
                raise CharQuasiError("elementary divisors must form a chain")
        object.__setattr__(self, "divisors", divs)


PeriodResult = namedtuple("PeriodResult", ["value", "exact"])
PeriodResult.__doc__ = """lcm-period value; exact=False marks a capped run (a lower bound).

A named tuple on purpose, not a _Value: it equals and unpacks as (value, exact)."""


def _chain_fix(diag: Iterable[int]) -> list[int]:
    """Turn a positive diagonal into the chained elementary divisors.

    Each pairwise replacement (a, b) -> (gcd, lcm) preserves equivalence;
    once every entry divides all later ones the list is the divisor chain.
    Any input order gives the same chain, so there is no sort: pass i
    leaves d[i] dividing every later entry (d[i] only drops to divisors of
    itself, so it keeps dividing the entries already passed), and the
    divisor chain of a matrix is unique.
    """
    d = list(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_divisors(mat: IntMatrix) -> ElementaryDivisors:
    """Elementary divisors e_1 | ... | e_rank of an integer matrix.

    Kept because bench/inputs.py:naive_period and smith_divisors_us call it.
    """
    return ElementaryDivisors(_basis_divisors(_span(mat.rows, mat.columns())))


def column_submatrix(mat: IntMatrix, indices: Iterable[int]) -> IntMatrix:
    """Submatrix of the 1-based columns J, in increasing index order.

    Raises IndexOutOfRange when an index falls outside 1..n and CharQuasiError
    for an empty index set.  Kept because bench/inputs.py:naive_period calls it.
    """
    J = sorted({operator.index(j) for j in indices})
    if not J:
        raise CharQuasiError("column index set must be nonempty")
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
    vec already lies in the lattice it is an equal tuple.
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
def _lattice_table(mat: IntMatrix) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(signed count, rank, elementary divisors > 1) of each inclusion-exclusion term.

    The signed count of a lattice sums (-1)^|J| over the column subsets J
    that span it, the empty one included (count 1, rank 0, no divisors).
    A lattice whose count is 0 when a column is added passes nothing on to
    its extension, so it is skipped; this leaves every count exact.  The
    lattices with a nonzero count are then folded by (rank, divisors > 1),
    their counts summed, and a term whose sum is 0 is dropped.
    """
    table = {_span(mat.rows, ()): 1}
    for col in mat.columns():
        for basis, count in list(table.items()):
            if count:
                key = _hnf_add(basis, col)
                table[key] = table.get(key, 0) - count
    terms: dict[tuple[int, tuple[int, ...]], int] = {}
    for basis, count in table.items():
        if count:
            divs = _basis_divisors(basis)
            term = (len(divs), divs[divs.count(1) :])
            terms[term] = terms.get(term, 0) + count
    return tuple((count, *term) for term, count in terms.items() if count)


def _rank(basis: tuple[tuple[int, ...], ...]) -> int:
    return sum(1 for p, r in enumerate(basis) if r[p])


def _minors_gcd(basis: tuple[tuple[int, ...], ...], vec: Sequence[int]) -> int:
    """A multiple of the last divisor of basis plus vec if vec raises the rank, else 0.

    vec is reduced against every pivot row p without division,
    v -> r[p] * v - v[p] * r, which scales the determinant of (the pivot
    rows, v) by r[p] and leaves v zero at the pivots.  Entry q of the
    result is then, up to sign, the minor of (the pivot rows, vec) at the
    pivot columns and q: a maximal minor of a basis of the new lattice,
    so a multiple of the product of its elementary divisors.
    """
    v = vec
    for p, r in enumerate(basis):
        if r[p]:
            v = [r[p] * a - v[p] * b for a, b in zip(v, r)]
    return math.gcd(*v)


def lcm_period(mat: IntMatrix, max_subset_size: int | None = None) -> PeriodResult:
    """lcm of the last elementary divisor over column subsets of the matrix.

    Without a cap this covers all nonempty subsets and is exact; it
    refuses matrices with more than FULL_ENUMERATION_LIMIT columns, the
    package's one column limit.  With max_subset_size = c it covers the
    subsets of size <= c; the result is exact when c >= rank S (so
    c = the row count always is) and otherwise only a lower bound (a
    divisor of the true period).

    Only the lattices of independent column sets are built (see the module
    docstring): a column extends a lattice when it raises the rank, up to
    top = min(c, rank S), and the period is the lcm of the last divisor
    over the lattices of rank top.  One dict maps every lattice reached,
    of any rank up to top, to its rank.
    """
    n = mat.cols
    rank = _rank(_span(mat.rows, mat.columns()))
    if max_subset_size is None:
        if n > FULL_ENUMERATION_LIMIT:
            raise TooManyColumns(
                f"too many columns for full enumeration: {n} > "
                f"{FULL_ENUMERATION_LIMIT}; the matrix has rank {rank}, and any cap "
                f"N >= {rank} gives the exact period: pass max_subset_size "
                "(charquasi period --max-subset-size N on the command line)"
            )
        cap = n
    else:
        cap = operator.index(max_subset_size)
        if cap < 1:
            raise CharQuasiError("max_subset_size must be >= 1")
    top = min(cap, rank)
    # Lattices of independent sets, with their rank; those of rank top are
    # never extended, and only their last divisor is kept.
    seen = {_span(mat.rows, ()): 0}
    rho = 1
    for col in mat.columns():
        for basis, r in list(seen.items()):
            # At rank top - 1, a multiple of the last divisor that divides rho
            # (or a column in the rational span, gcd 0) adds nothing: skip it.
            if r + 1 < top or (r < top and rho % (_minors_gcd(basis, col) or rho)):
                key = _hnf_add(basis, col)
                if key not in seen and _rank(key) > r:
                    seen[key] = r + 1
                    if r + 1 == top:
                        rho = math.lcm(rho, _basis_divisors(key)[-1])
    return PeriodResult(rho, cap >= rank)
