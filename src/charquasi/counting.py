"""Counting lattice points off the hyperplanes, three independent ways.

For an m x n normal matrix S and a modulus q >= 1 the object counted is

    M_S(q) = {x in (Z/q)^m : x . s_j is nonzero mod q for every column s_j},

whose size is a monic quasi-polynomial in q of degree m.  This module holds
the two generic counters plus exact interpolation:

  * brute_force_count: literal enumeration of all q^m points in pure
    Python integers.  The points of the last coordinates are the bits of
    one int, and per column a table of masks (the block points of each
    partial residue) decides them all against one prefix point with an OR
    and a popcount.  No mask spans more than 2^20 points, so memory is
    bounded whatever q^m is, and the point budget is its only limit.
  * snf_count: inclusion-exclusion over column subsets J,
        |M_S(q)| = sum_J (-1)^|J| q^(m - l(J)) prod_i gcd(e_{J,i}, q),
    where e_{J,i} are the elementary divisors of the column submatrix and
    l(J) its rank; the empty subset contributes q^m.  A term depends on
    J through l(J) and its divisors > 1 alone, so the sum runs over the
    distinct terms of intlinalg's lattice table, each weighted by the
    signed count of its subsets, not over the 2^n subsets.
  * interpolate_quasi: exact Newton interpolation in integers (divided
    differences, each division checked to be exact) of one degree-m
    constituent per divisor of a given period, from m + 1 brute-force
    counts per divisor.

The results are the exact types of the polynomials module; they are bound
here too, so `from charquasi.counting import Polynomial` keeps working.
"""

import math
import operator
from functools import reduce

from .arrangements import IntMatrix
from .errors import BudgetExceeded, CharQuasiError, positive
from .polynomials import Polynomial, QuasiPolynomial, divisors

DEFAULT_POINT_BUDGET = 10**8
_TABLE_BITS = 1 << 20


def check_point_budget(q: int, m: int, budget: int = DEFAULT_POINT_BUDGET) -> None:
    """Raise BudgetExceeded when the q^m points of one count exceed budget.

    The one point-budget check: brute_force_count makes it on every count,
    and interpolate_quasi and the verify command make it on their largest
    modulus before any count.
    """
    if q**m > budget:
        raise BudgetExceeded(
            f"{q}^{m} = {q**m} points exceed the budget of {budget}; raise it with "
            "the budget= argument of brute_force_count or interpolate_quasi, or "
            "count with snf_count (charquasi count --method snf), which has no "
            "point budget"
        )


def brute_force_count(mat: IntMatrix, q: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """|M_S(q)| by enumerating all q^m points, many per machine word.

    Entries are reduced mod q as Python integers, so any entry size is
    exact.  The last k coordinates form a block whose points are the bits
    of one Python int; the top block coordinate may be cut into slices.
    Column j has masks G_j[c]: the block points whose partial residue is c.
    A point lies on hyperplane j when its block residue is minus its prefix
    residue, so the prefix rows (and the slice step) are negated once: the
    residue r_j a prefix point then gives column j is the index of the
    mask it rules out, G_j[r_j].  The point leaves the block size minus the
    popcount of the union of those masks; every point is still decided one
    by one.

    Memory is bounded whatever q^m is, by the one width _TABLE_BITS =
    2^20.  For k >= 2 (m >= 3 and q <= 724), a column's table of q masks
    holds at most 2^20 bits, and the tables of its lower coordinates at
    most as much again: at most 2^21 bits, 256 KiB, per distinct column of
    the block.  A one-coordinate block (k = 1) builds no table: it is cut
    into slices of at most 2^20 points, and its masks are progressions made
    per prefix point and slice.  Each slice is worked out when it is
    reached; none is stored.

    Raises BudgetExceeded when q^m exceeds the point budget, its only
    limit.  q = 1 gives 0 on every layout: every residue is 0 mod 1, so
    each point lies on the first column's hyperplane.
    """
    q = positive(q, "modulus q")
    m, n = mat.rows, mat.cols
    check_point_budget(q, m, budget)
    rows = [[v % q for v in row] for row in mat.entries]
    # k grows while a column table keeps at least two values of the top
    # block coordinate; top is how many it keeps.
    k, top = 1, min(q, _TABLE_BITS)
    while k < m - 1 and 2 * q ** (k + 1) <= _TABLE_BITS:
        k += 1
        top = min(q, _TABLE_BITS // q**k)
    block = rows[m - k :]
    if k == 1:
        looks = [_Progression(s, q, top) for s in block[0]]
    else:
        tables: dict[tuple[int, ...], list[int]] = {}
        looks = [_column_table(col, q, top, tables) for col in zip(*block)]
    # The top coordinate runs in slices of top values, and only the last
    # may be short (shapes[1]); each further slice adds top * s_top to every
    # block residue, so it takes as much off every negated prefix residue.
    width = q ** (k - 1)
    shapes = [(size, (1 << size) - 1) for size in (top * width, q % top * width)]
    step = [-top * s % q for s in block[0]]
    prefix = [[-v % q for v in row] for row in rows[: m - k]]
    count = 0
    for res in _prefix_residues(prefix, q, n):
        for lo in range(0, q, top):
            if lo:
                res = [(a + b) % q for a, b in zip(res, step)]
            size, mask = shapes[q - lo < top]
            bad = reduce(operator.or_, map(operator.getitem, looks, res))
            count += size - (bad & mask).bit_count()
    return count


def _prefix_residues(rows: list[list[int]], q: int, n: int):
    """Residue vectors x . rows mod q for x in (Z/q)^len(rows), one live at a time."""
    if not rows:
        yield [0] * n
        return
    *outer, last = rows
    for res in _prefix_residues(outer, q, n):
        for _ in range(q):
            yield res
            res = [(a + b) % q for a, b in zip(res, last)]


def _tile(pattern: int, width: int, total: int) -> int:
    """The width-bit pattern repeated from bit 0 up, cut to total bits."""
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << total) - 1)


class _Progression:
    """Masks G[c] of a one-coordinate block [0, size), made on demand.

    s * t = c (mod q) holds exactly on the progression x0 + span * i,
    span = q / gcd(s, q), when gcd(s, q) divides c, so no q x q table is
    needed.  It keeps one size-bit comb, and each lookup makes one mask of
    at most 2 * size bits, so its memory does not grow with q.  Bits from
    size up may be set; the caller masks them off.
    """

    def __init__(self, s: int, q: int, size: int):
        self.g = math.gcd(s, q)
        self.span = q // self.g
        self.inverse = pow(s // self.g, -1, self.span)
        self.size = size
        self.comb = _tile(1, self.span, size)

    def __getitem__(self, c: int) -> int:
        if c % self.g:
            return 0
        x0 = c // self.g * self.inverse % self.span
        return self.comb << x0 if x0 < self.size else 0


def _column_table(
    coeffs: tuple[int, ...], q: int, top: int, tables: dict[tuple[int, ...], list[int]]
) -> list[int]:
    """G[c] for c in Z/q: the block points whose partial residue is c.

    The block spans coefficients coeffs, the first coordinate taking only
    the values 0..top-1.  It is the block of coeffs[1:] (read from tables,
    where columns share it) joined as the new most significant digit y,
    block size B -> top * B: block y of G[c] is G_old[c - y * s], so block
    y + 1 of G[c] is block y of G[c - s].  One start per coset of <s> is
    built directly (its q / gcd(s, q) blocks tiled), the rest of the coset
    by that shift: O(q) big-integer operations per coordinate.  Each table
    is kept in tables under its coeffs and built only once per call of
    brute_force_count; one call uses one top, and only its k-coordinate
    columns take it, so no key is built with two tops.
    """
    if coeffs in tables:
        return tables[coeffs]
    if not coeffs:
        return [1] + [0] * (q - 1)
    s, rest = coeffs[0], coeffs[1:]
    table, size = _column_table(rest, q, q, tables), q ** len(rest)
    g = math.gcd(s, q)
    span = q // g
    full = (1 << top * size) - 1
    rows = min(span, top)
    new = [0] * q
    for c in range(g):
        start = 0
        for y in range(rows):
            start |= table[(c - y * s) % q] << (y * size)
        new[c] = _tile(start, span * size, top * size) if start else 0
        for _ in range(span - 1):
            nxt = (c + s) % q
            new[nxt] = table[nxt] | ((new[c] << size) & full)
            c = nxt
    tables[coeffs] = new
    return new


def snf_count(mat: IntMatrix, q: int) -> int:
    """|M_S(q)| by inclusion-exclusion over the elementary divisor data.

    Sums the terms of intlinalg's lattice table, count * q^(m - rank) *
    prod gcd(e, q) each, one per distinct (rank, divisors > 1) with a
    nonzero count.  The table is built on a matrix's first call and cached,
    so a later modulus reads only its terms.  It has no column limit: the
    build grows with the number of lattices, not with 2^n.  Agreement with
    brute_force_count for all q is the core cross-check of the package.
    """
    # Loaded here so commands that only count by brute force never import
    # the subset layer.
    from .intlinalg import _lattice_table

    q = positive(q, "modulus q")
    m = mat.rows
    total = 0
    for count, rank, divs in _lattice_table(mat):
        term = count * q ** (m - rank)
        for e in divs:
            term *= math.gcd(e, q)
        total += term
    return total


def _newton_integer_poly(xs: list[int], ys: list[int]) -> Polynomial:
    """Exact interpolating polynomial through (xs[i], ys[i]); must be integral.

    At integer nodes the divided differences of an integer polynomial are
    integers, and integer divided differences give an integer Newton form.
    So the interpolant is integral exactly when every division is exact.
    """
    coeffs = list(ys)
    for step in range(1, len(xs)):
        for i in range(len(xs) - 1, step - 1, -1):
            num, den = coeffs[i] - coeffs[i - 1], xs[i] - xs[i - step]
            coeffs[i], rest = divmod(num, den)
            if rest:
                raise CharQuasiError(
                    f"divided difference {num}/{den} over q = {xs[i - step]}..{xs[i]} "
                    "is not an integer"
                )
    poly = Polynomial((coeffs[-1],))
    for x, c in zip(reversed(xs[:-1]), reversed(coeffs[:-1])):
        poly = poly * Polynomial((-x, 1)) + c
    return poly


def interpolate_quasi(
    mat: IntMatrix, period: int, budget: int = DEFAULT_POINT_BUDGET
) -> QuasiPolynomial:
    """Interpolate the quasi-polynomial of the matrix for a given period P.

    A constituent depends on q only through gcd(q, P), so one class per
    divisor g of P is fitted, in increasing order: its first m + 1 sample
    moduli q = g + P*j, j = 0..m, all with gcd(q, P) = g, are counted by
    brute_force_count (each within budget) and interpolated exactly.  The
    largest modulus, P*(m + 1), is checked before any count: a period over
    the point budget raises BudgetExceeded naming it.
    q = 1 is a valid sample of class 1: its constituent
    sum_J (-1)^|J| q^(m - rank J) is 0 there, as is the count.

    The result is exact when P is a multiple of the minimum period (such
    as lcm_period's value).  Any other P may be refused, with a
    CharQuasiError at the lowest class that fails (a divided difference
    that is not an integer, or a constituent not monic of degree m), or may
    give a wrong result: P = 1 for the one hyperplane 3x = 0 gives q - 1.
    A period below 1 is refused by errors.positive before the point budget
    is read and before any count.
    """
    period, m = positive(period, "period"), mat.rows
    check_point_budget(period * (m + 1), m, budget)
    constituents = []
    for g in divisors(period):
        xs = [g + period * j for j in range(m + 1)]
        ys = [brute_force_count(mat, x, budget) for x in xs]
        poly = _newton_integer_poly(xs, ys)
        if poly.degree != m or not poly.is_monic:
            raise CharQuasiError(
                f"residue class {g} interpolates to {poly}, "
                f"not monic of degree {m}"
            )
        constituents.append(poly)
    return QuasiPolynomial(period, constituents)


def verify_minimum_period(qp: QuasiPolynomial) -> bool:
    """True when no proper divisor of the period also works as a period.

    Write C(g) for the constituent of the classes k with gcd(k, rho) = g.
    A divisor d of rho is a period exactly when C(g) = C(gcd(g, d)) for
    every divisor g of rho: some class of gcd g is congruent to gcd(g, d)
    mod d, and conversely the condition makes the constituent of k depend
    on gcd(k, d) alone.
    """
    gcds = divisors(qp.period)
    by_gcd = dict(zip(gcds, qp.constituents))
    return not any(
        all(by_gcd[g] == by_gcd[math.gcd(g, d)] for g in gcds) for d in gcds[:-1]
    )
