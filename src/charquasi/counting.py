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
    l(J) its rank; the empty subset contributes q^m.  The terms depend on
    J only through the lattice its columns span, so the sum runs over the
    distinct lattices of intlinalg's lattice table, each weighted by its
    signed subset count, not over the 2^n subsets.
  * interpolate_quasi: exact Newton interpolation in integers (divided
    differences, each division checked to be exact) of one degree-m
    constituent per residue class mod a given period, from m + 1
    brute-force counts per class.

Polynomial and QuasiPolynomial are the exact result types shared with the
closed-form module.
"""

import math
import operator
from functools import reduce
from collections.abc import Iterable

from .arrangements import IntMatrix, _Value
from .errors import BudgetExceeded, InvalidResidue, NotIntegral, NotMonic

DEFAULT_POINT_BUDGET = 10**8
_TABLE_BITS = 1 << 20


class Polynomial(_Value):
    """Integer-coefficient polynomial; coeffs[i] multiplies q^i.

    Trailing zero coefficients are stripped, so the zero polynomial has
    coeffs == () and degree -1.  It supports + and * (with an int on either
    side), evaluation and text; nothing in the package subtracts, so there
    is no subtraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """The monic product of (q - r) over the given integer roots."""
        out = [1]
        for r in roots:
            r = operator.index(r)
            out = [0] + out
            for i in range(len(out) - 1):
                out[i] -= r * out[i + 1]
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(tuple(merged))

    __radd__ = __add__

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(tuple(other * c for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Canonical text: descending powers, explicit signs, '*' products."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            elif p == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{p}" if mag == 1 else f"{mag}*q^{p}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


class QuasiPolynomial(_Value):
    """One monic degree-m constituent per residue class modulo the period.

    constituents[k-1] applies to q = k (mod period), where the residue index
    runs over 1..period and index period covers q = 0 (mod period).  A
    residue index is any positive integer; anything else raises
    InvalidResidue.  str() gives the listing that `charquasi quasi` prints.
    """

    __slots__ = ("period", "constituents")

    def __init__(self, period: int, constituents: Iterable[Polynomial]) -> None:
        period = operator.index(period)
        constituents = tuple(constituents)
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(constituents) != period:
            raise ValueError(
                f"need exactly {period} constituents, got {len(constituents)}"
            )
        # Closed forms hand rho references to the few constituents of the
        # divisors of rho; values are immutable, so each object is checked
        # once here and formatted once by __str__.
        distinct = {id(p): p for p in constituents}.values()
        if len({p.degree for p in distinct}) != 1:
            raise ValueError("constituents must share one degree")
        if not all(p.is_monic for p in distinct):
            raise ValueError("constituents must be monic")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", constituents)

    def constituent(self, k: int) -> Polynomial:
        """Constituent of the residue class of k (any positive integer)."""
        return self.constituents[(_residue_index(k) - 1) % self.period]

    def __call__(self, q: int) -> int:
        return self.constituent(q)(q)

    def __str__(self) -> str:
        """The listing: 'period <rho>', then 'k=<k>: <constituent>' per class."""
        distinct = {id(p): p for p in self.constituents}
        text = {key: str(p) for key, p in distinct.items()}
        lines = [f"period {self.period}"]
        lines += (f"k={k}: {text[id(p)]}" for k, p in enumerate(self.constituents, 1))
        return "\n".join(lines) + "\n"


def _residue_index(k: int) -> int:
    """k as a residue-class index: a positive integer, else InvalidResidue."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidResidue(f"residue index must be an integer, got {k!r}") from None
    if k < 1:
        raise InvalidResidue(f"residue index must be >= 1, got {k}")
    return k


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
    q = operator.index(q)
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    m, n = mat.rows, mat.cols
    if q**m > budget:
        raise BudgetExceeded(
            f"{q}^{m} = {q**m} points exceed the budget of {budget}; raise it with "
            "the budget= argument of brute_force_count or interpolate_quasi, or "
            "count with snf_count (charquasi count --method snf), which has no "
            "point budget"
        )
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

    Sums one term per distinct column lattice with a nonzero signed count
    (built once per matrix and cached).  It has no column limit: the cost
    grows with the lattice count, not with the width.  Agreement with
    brute_force_count for all q is the core cross-check of the package.
    """
    # Loaded here so closed-form work, which needs only the result types,
    # never imports the subset layer.
    from .intlinalg import _lattice_table

    q = operator.index(q)
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    m = mat.rows
    total = 0
    for count, divs in _lattice_table(mat):
        term = count * q ** (m - len(divs))
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
                raise NotIntegral(
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
    """Interpolate the quasi-polynomial of the matrix for a given period.

    Per residue class k in 1..period the first m + 1 sample moduli
    q = k + period*j, j = 0..m, are counted by brute_force_count (each
    within budget) and interpolated exactly.  q = 1 is a valid sample of
    class 1: its constituent sum_J (-1)^|J| q^(m - rank J) is 0 there,
    as is the count.  A wrong period surfaces as NotIntegral or NotMonic,
    never as a silently wrong result.  A period below 1 samples no class
    and is refused by QuasiPolynomial.
    """
    m = mat.rows
    constituents = []
    for k in range(1, period + 1):
        xs = [k + period * j for j in range(m + 1)]
        ys = [brute_force_count(mat, x, budget) for x in xs]
        poly = _newton_integer_poly(xs, ys)
        if poly.degree != m or not poly.is_monic:
            raise NotMonic(
                f"residue class {k} interpolates to {poly}, "
                f"not monic of degree {m}"
            )
        constituents.append(poly)
    return QuasiPolynomial(period, tuple(constituents))


def verify_minimum_period(qp: QuasiPolynomial) -> bool:
    """True when no proper divisor of the period also works as a period.

    A multiple of a period d | rho that divides rho is again a period, so
    it is enough to try rho / p for each prime p dividing rho.
    """
    rho, cs = qp.period, qp.constituents
    rest, p = rho, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            d = rho // p
            if all(cs[k] == cs[k % d] for k in range(rho)):
                return False
            while rest % p == 0:
                rest //= p
        p += 1
    return True


def check_gcd_property(qp: QuasiPolynomial) -> bool:
    """True when constituents depend only on gcd(period, k).

    The first class with gcd g is g itself, so each class is compared
    with the class of its gcd.  Class rho is left out: gcd(rho, rho) = rho,
    so it would be compared with itself.
    """
    rho = qp.period
    return all(qp.constituent(k) == qp.constituent(math.gcd(k, rho)) for k in range(1, rho))
