"""The exact result types: Polynomial and QuasiPolynomial.

Interpolation and the closed forms both return these values, so they live
apart from either: a closed-form listing loads this module and never the
counting layer it is checked against.  The module imports only the value
base class and two errors.
"""

import operator
from collections.abc import Iterable

from .arrangements import _Value
from .errors import CharQuasiError, InvalidResidue


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
            raise CharQuasiError("period must be >= 1")
        if len(constituents) != period:
            raise CharQuasiError(
                f"need exactly {period} constituents, got {len(constituents)}"
            )
        # Closed forms hand rho references to the few constituents of the
        # divisors of rho; values are immutable, so each object is checked
        # once here and formatted once by __str__.
        distinct = {id(p): p for p in constituents}.values()
        if len({p.degree for p in distinct}) != 1:
            raise CharQuasiError("constituents must share one degree")
        if not all(p.is_monic for p in distinct):
            raise CharQuasiError("constituents must be monic")
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
