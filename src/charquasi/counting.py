"""Counting lattice points off the hyperplanes, three independent ways.

For an m x n normal matrix S and a modulus q >= 1 the object counted is

    M_S(q) = {x in (Z/q)^m : x . s_j is nonzero mod q for every column s_j},

whose size is a monic quasi-polynomial in q of degree m.  This module holds
the two generic counters plus exact interpolation:

  * brute_force_count: literal enumeration of all q^m points by one numpy
    kernel.  Entries are reduced mod q as Python integers first, so any
    entry size is exact; residue vectors x . S mod q are then built
    coordinate by coordinate, a table for the last coordinates joined to
    blocks of prefix points, in the narrowest unsigned dtype that holds
    q - 1 and in memory bounded by the chunk size whatever q^m is.
  * snf_count: inclusion-exclusion over column subsets J,
        |M_S(q)| = sum_J (-1)^|J| q^(m - l(J)) prod_i gcd(e_{J,i}, q),
    where e_{J,i} are the elementary divisors of the column submatrix and
    l(J) its rank; the empty subset contributes q^m.  The terms depend on
    J only through the lattice its columns span, so the sum runs over the
    distinct lattices of intlinalg's lattice table, each weighted by its
    signed subset count, not over the 2^n subsets.
  * interpolate_quasi: exact Lagrange interpolation (Fraction arithmetic)
    of one degree-m constituent per residue class mod a given period, from
    m + 1 brute-force counts per class.

Polynomial and QuasiPolynomial are the exact result types shared with the
closed-form module.

numpy is loaded on the first brute_force_count call, not on import: lcm
periods, snf_count and the closed forms never load it, so a process that
only uses them starts without it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .arrangements import IntMatrix
from .errors import BudgetExceeded, NotIntegral, NotMonic, TooManyColumns
from .intlinalg import FULL_ENUMERATION_LIMIT, _lattice_table

DEFAULT_POINT_BUDGET = 10**8
_CHUNK = 1 << 16
# Residues and coordinates stay below q, so every product x * (s mod q) is
# below q^2 and fits int64 with room for one more residue when q < 2^31.
_MAX_MODULUS = 1 << 31


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial; coeffs[i] multiplies q^i.

    Trailing zero coefficients are stripped, so the zero polynomial has
    coeffs == () and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = [operator.index(c) for c in self.coeffs]
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

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(tuple(other * c for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial(())
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


@dataclass(frozen=True)
class QuasiPolynomial:
    """One monic degree-m constituent per residue class modulo the period.

    constituents[k-1] applies to q = k (mod period), where the residue index
    runs over 1..period and index period covers q = 0 (mod period).
    """

    period: int
    constituents: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        period = operator.index(self.period)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", tuple(self.constituents))
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(self.constituents) != period:
            raise ValueError(
                f"need exactly {period} constituents, got {len(self.constituents)}"
            )
        degs = {p.degree for p in self.constituents}
        if len(degs) != 1:
            raise ValueError("constituents must share one degree")
        if not all(p.is_monic for p in self.constituents):
            raise ValueError("constituents must be monic")

    @property
    def degree(self) -> int:
        return self.constituents[0].degree

    def constituent(self, k: int) -> Polynomial:
        """Constituent of the residue class of k (any positive integer)."""
        k = operator.index(k)
        if k < 1:
            raise ValueError("residue index must be >= 1")
        return self.constituents[(k - 1) % self.period]

    def __call__(self, q: int) -> int:
        return self.constituent(q)(q)


def brute_force_count(mat: IntMatrix, q: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """|M_S(q)| by enumerating all q^m points.

    Raises BudgetExceeded when q^m exceeds the point budget, and for any
    q >= 2^31 whatever the budget.  q = 1 always gives 0: every product is
    0 mod 1 and the matrix has at least one column.
    """
    q = operator.index(q)
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    if q >= _MAX_MODULUS:
        raise BudgetExceeded(f"modulus {q} >= 2^31 overflows int64; no budget lifts it")
    m, n = mat.rows, mat.cols
    if q**m > budget:
        raise BudgetExceeded(
            f"{q}^{m} = {q**m} points exceed the budget of {budget}; raise it with "
            "the budget= argument of brute_force_count or interpolate_quasi"
        )
    if q == 1:
        return 0
    # Loaded on first use: start-up, periods, SNF and closed forms never need it.
    import numpy as np

    rows = np.array([[v % q for v in row] for row in mat.entries], dtype=np.int64)
    # Residue vectors (one per column) of every point of the last k < m
    # coordinates, with k as large as q^k <= _CHUNK allows.
    table, k = np.zeros((n, 1), np.int64), 0
    while k < m - 1 and table.shape[1] * q <= _CHUNK:
        k += 1
        table = (table[:, :, None] + rows[-k][:, None, None] * np.arange(q)) % q
        table = table.reshape(n, -1)
    dtype = np.min_scalar_type(q - 1)
    table = table.astype(dtype)
    # Prefix points: the outer coordinates one tuple at a time, the last
    # prefix coordinate in slices, so a block joins at most _CHUNK points.
    *outer, last = rows[: m - k]
    size = max(1, _CHUNK // table.shape[1])
    count = 0
    for xs in product(range(q), repeat=len(outer)):
        base = np.zeros(n, np.int64)
        for x, row in zip(xs, outer):
            base = (base + x * row) % q
        for lo in range(0, q, size):
            xs_last = np.arange(lo, min(lo + size, q))
            # Prefix p and suffix t give p + t != 0 exactly when t != -p (mod q).
            neg = (-(base[:, None] + last[:, None] * xs_last) % q).astype(dtype)
            count += int((table[:, None, :] != neg[:, :, None]).all(axis=0).sum())
    return count


def snf_count(mat: IntMatrix, q: int) -> int:
    """|M_S(q)| by inclusion-exclusion over the elementary divisor data.

    Sums one term per distinct column lattice (built once per matrix and
    cached, shared with lcm_period).  Matrices wider than
    FULL_ENUMERATION_LIMIT are refused; the limit is a policy, the cost
    grows with the lattice count.  Agreement with brute_force_count for all
    q is the core cross-check of the package.
    """
    q = operator.index(q)
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    if mat.cols > FULL_ENUMERATION_LIMIT:
        raise TooManyColumns(
            f"too many columns for inclusion-exclusion: {mat.cols} > "
            f"{FULL_ENUMERATION_LIMIT}; brute_force_count has no column limit"
        )
    m = mat.rows
    total = 0
    for count, divs in _lattice_table(mat, mat.cols):
        term = count * q ** (m - len(divs))
        for e in divs:
            term *= math.gcd(e, q)
        total += term
    return total


def _lagrange_integer_poly(xs: list[int], ys: list[int]) -> Polynomial:
    """Exact interpolating polynomial through (xs[i], ys[i]); must be integral."""
    k = len(xs)
    acc = [Fraction(0)] * k
    for i in range(k):
        if ys[i] == 0:
            continue
        basis = [Fraction(1)]
        denom = 1
        for j in range(k):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= xs[j] * basis[d + 1]
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i], denom)
        for d, c in enumerate(basis):
            acc[d] += scale * c
    for d, c in enumerate(acc):
        if c.denominator != 1:
            raise NotIntegral(f"coefficient of q^{d} interpolates to {c}")
    return Polynomial(tuple(int(c) for c in acc))


def interpolate_quasi(
    mat: IntMatrix, period: int, budget: int = DEFAULT_POINT_BUDGET
) -> QuasiPolynomial:
    """Interpolate the quasi-polynomial of the matrix for a given period.

    Per residue class k in 1..period the first m + 1 sample moduli
    q = k + period*j with q >= 2 are counted by brute_force_count (each
    within budget) and interpolated exactly.  A wrong period surfaces as
    NotIntegral or NotMonic, never as a silently wrong result.
    """
    period = operator.index(period)
    if period < 1:
        raise ValueError("period must be >= 1")
    m = mat.rows
    constituents = []
    for k in range(1, period + 1):
        # Smallest sample modulus >= 2 in the class, then m more steps of rho.
        first = k if k >= 2 else 1 + period
        xs = [first + period * j for j in range(m + 1)]
        ys = [brute_force_count(mat, x, budget) for x in xs]
        poly = _lagrange_integer_poly(xs, ys)
        if poly.degree != m or not poly.is_monic:
            raise NotMonic(
                f"residue class {k} interpolates to {poly}, "
                f"not monic of degree {m}"
            )
        constituents.append(poly)
    return QuasiPolynomial(period, tuple(constituents))


def verify_minimum_period(qp: QuasiPolynomial) -> bool:
    """True when no proper divisor of the period also works as a period."""
    rho = qp.period
    for d in range(1, rho):
        if rho % d:
            continue
        if all(
            qp.constituents[k] == qp.constituents[k % d] for k in range(rho)
        ):
            return False
    return True


def check_gcd_property(qp: QuasiPolynomial) -> bool:
    """True when constituents depend only on gcd(period, k)."""
    rho = qp.period
    seen: dict[int, Polynomial] = {}
    for k in range(1, rho + 1):
        g = math.gcd(rho, k)
        if g in seen:
            if seen[g] != qp.constituents[k - 1]:
                return False
        else:
            seen[g] = qp.constituents[k - 1]
    return True
