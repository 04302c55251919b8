"""The exact result types, Polynomial and QuasiPolynomial, and divisors(n).

A quasi-polynomial keeps one constituent per divisor of its period, in the
order divisors() gives.

Interpolation and the closed forms both return these values, so they live
apart from either: a closed-form listing loads this module and never the
counting layer it is checked against.  The module imports only the value
base class, CharQuasiError and the positive() check.
"""

import functools
import math
import operator
from collections.abc import Iterable, Iterator

from .arrangements import _Value
from .errors import CharQuasiError, positive


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
    """One monic degree-m constituent per divisor of the period.

    A constituent depends on the residue class k only through
    gcd(k, period), the gcd property of Kamiya-Takemura-Terao, so the type
    stores it once per divisor: constituents[i] applies to every q with
    gcd(q, period) == divisors(period)[i].  For period 1 or 2 that is the
    class tuple itself.  The period and a residue index are integers of at
    least 1, checked by errors.positive: a non-integer raises TypeError,
    and an integer below 1 a CharQuasiError naming "period" or "residue
    index" and the value.
    str() gives the listing that `charquasi quasi` prints, one line per
    class k = 1..period.
    """

    __slots__ = ("period", "constituents")

    def __init__(self, period: int, constituents: Iterable[Polynomial]) -> None:
        period = positive(period, "period")
        constituents = tuple(constituents)
        need = len(divisors(period))
        if len(constituents) != need:
            raise CharQuasiError(f"need exactly {need} constituents, got {len(constituents)}")
        if len({p.degree for p in constituents}) != 1:
            raise CharQuasiError("constituents must share one degree")
        if not all(p.is_monic for p in constituents):
            raise CharQuasiError("constituents must be monic")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", constituents)

    def constituent(self, k: int) -> Polynomial:
        """Constituent of the residue class of k (any positive integer)."""
        g = math.gcd(positive(k, "residue index"), self.period)
        return self.constituents[divisors(self.period).index(g)]

    def __call__(self, q: int) -> int:
        return self.constituent(q)(q)

    def __str__(self) -> str:
        """The listing: 'period <rho>', then 'k=<k>: <constituent>' per class."""
        return "".join(self._listing())

    def _listing(self) -> Iterator[str]:
        """str()'s text in pieces: the period line, then blocks of classes.

        Each stored constituent is formatted once, and a block holds at
        most _LISTING_BLOCK classes, so a writer of the pieces holds one
        block of text at a time, whatever the period.
        """
        rho = self.period
        text = dict(zip(divisors(rho), map(str, self.constituents)))
        yield f"period {rho}\n"
        for lo in range(1, rho + 1, _LISTING_BLOCK):
            classes = range(lo, min(lo + _LISTING_BLOCK, rho + 1))
            yield "".join([f"k={k}: {text[math.gcd(k, rho)]}\n" for k in classes])


# Classes per block of a listing: few writes on an unbuffered stdout, and
# a block of text well under a megabyte.
_LISTING_BLOCK = 4096


# Kept per period: constituent(k) reads it on every call, and it costs
# O(sqrt(n)) to find.
@functools.lru_cache(maxsize=64)
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n in increasing order; none when n < 1."""
    low = [d for d in range(1, math.isqrt(max(n, 0)) + 1) if n % d == 0]
    return tuple(low + [n // d for d in reversed(low) if d * d != n])
