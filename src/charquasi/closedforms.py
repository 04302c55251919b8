"""Closed-form constituents for the built-in arrangement families.

Each function returns exact polynomials (or a full quasi-polynomial) built
from integer roots, matching what counting and interpolation produce point
for point.  Empty products are 1 and empty sums are 0 throughout, so every
formula degenerates correctly at t = 0, t = m, r = 0 and r = t.  The
reflection families have no formulas of their own: chi_coxeter reads the
deformation formulas through arrangements.coxeter_spec.

Residue-class indices k are reduced through the gcd property: constituents
of a quasi-polynomial with minimum period rho agree whenever the indices
share a gcd with rho, so any positive k is mapped to k' = gcd(rho, k) (with
k' = rho covering the class q = 0 mod rho).  This also makes the deformation
formulas directly evaluable at raw moduli q.

One pitfall is documented here because it is easy to reintroduce: in the
even-residue type-D formula the correction sum's first inner product runs
over j = r+1, ..., i-1.  A plausible-looking variant that starts at j = 1
re-multiplies the even-prefix factors and overcounts; for m = 2, r = 1,
s = (2, 1) at q = 6 it yields 20 where direct enumeration gives 12.  The
wrong variant is kept private so regression tests can pin the disagreement.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .arrangements import DeformSpec, coxeter_spec
from .counting import Polynomial, QuasiPolynomial
from .errors import EmptyArrangement, InvalidParity, InvalidResidue, SpecMismatch
from .intlinalg import known_period


def _reduce_residue(k: int, rho: int) -> int:
    """Map any positive k to its gcd-equivalent residue index in 1..rho."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidResidue(f"residue index must be an integer, got {k!r}") from None
    if k < 1:
        raise InvalidResidue(f"residue index must be >= 1, got {k}")
    return math.gcd(k, rho)


def chi_coxeter(family: str, m: int) -> QuasiPolynomial:
    """Characteristic quasi-polynomial of a reflection family, in closed form.

    A_m and B_1 have period 1.  B_m (m >= 2), C_m and D_m have period 2,
    with one constituent for odd q (k = 1) and one for even q (k = 2).
    Raises EmptyArrangement for A or D with m = 1 (no hyperplanes; the
    count would be plain q).
    """
    return deform_quasi(*coxeter_spec(family, m))


def deform_quasi(family: str, spec: DeformSpec) -> QuasiPolynomial:
    """The whole closed-form quasi-polynomial of Adeform or Ddeform.

    A constituent depends on k only through gcd(k, rho), so each divisor
    of the period rho is evaluated once and its classes share the result.
    """
    chi = chi_deform_a if family == "Adeform" else chi_deform_d
    rho = known_period(spec, family)
    by_gcd = {g: chi(spec, g) for g in range(1, rho + 1) if rho % g == 0}
    return QuasiPolynomial(rho, (by_gcd[math.gcd(k, rho)] for k in range(1, rho + 1)))


def chi_deform_a(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of A_m(s) for the residue class of k:

        prod_{i=1}^{t} (q - d_i - i + 1) * prod_{i=t+1}^{m} (q - i + 1),

    with d_i = gcd(k', s_i) after gcd-reduction of k.  The parity field r
    is ignored.  With t = 0, m = 1 the arrangement is empty (error).
    """
    if spec.t == 0 and spec.m == 1:
        raise EmptyArrangement("empty arrangement: A_1 has no hyperplanes")
    kp = _reduce_residue(k, known_period(spec, "Adeform"))
    roots = [math.gcd(kp, v) + i for i, v in enumerate(spec.s)]
    roots += range(spec.t, spec.m)
    return Polynomial.from_roots(roots)


def _require_d_spec(spec: DeformSpec) -> None:
    if spec.r is None:
        raise InvalidParity("type-D deformation needs the even-prefix length r")
    if spec.m < 2:
        raise EmptyArrangement("empty arrangement: type-D deformation needs m >= 2")


def _odd_constituent_d(m: int, t: int, d: Sequence[int]) -> Polynomial:
    head = Polynomial.from_roots(d[i] + 2 * i for i in range(t))
    tail = Polynomial.from_roots(2 * i + 1 for i in range(t, m))
    tail += (m - t) * Polynomial.from_roots(2 * i + 1 for i in range(t, m - 1))
    return head * tail


def _even_constituent_d(
    m: int, r: int, t: int, d: Sequence[int], overcount_prefix: bool = False
) -> Polynomial:
    """Even-residue constituent prefix * (P1 + P2) of D_m(s).

    overcount_prefix=True reproduces the wrong variant whose correction
    sum starts its first inner product at j = 1 instead of j = r + 1; it
    exists only so tests can pin the discrepancy.
    """
    prefix = Polynomial.from_roots(d[i] + 2 * i for i in range(r))
    p1 = Polynomial.from_roots(d[i] + 2 * i + 1 for i in range(r, t))
    p1 *= (
        Polynomial.from_roots(2 * i + 2 for i in range(t, m))
        + 2 * (m - t) * Polynomial.from_roots(2 * i + 2 for i in range(t, m - 1))
        + (m - t) * (m - t - 1)
        * Polynomial.from_roots(2 * i + 2 for i in range(t, m - 2))
    )
    lo = 0 if overcount_prefix else r
    correction = Polynomial(())
    for i in range(r, t):
        left = Polynomial.from_roots(d[j] + 2 * j + 1 for j in range(lo, i))
        right = Polynomial.from_roots(d[j] + 2 * j - 1 for j in range(i + 1, t))
        correction += left * right
    p2 = correction * (
        Polynomial.from_roots(2 * i for i in range(t, m))
        + (m - t) * Polynomial.from_roots(2 * i for i in range(t, m - 1))
    )
    return prefix * (p1 + p2)


def chi_deform_d(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of D_m(s) for the residue class of k.

    Requires the parity split r on the spec and m >= 2.  k is gcd-reduced
    modulo the period lcm(s_1, 2) (2 when t = 0); the period is even, so
    the reduction preserves the parity of k.  Odd classes use

        prod_{i=1}^{t} (q - d_i - 2i + 2)
        * (prod_{i=t+1}^{m} (q - 2i + 1) + (m - t) prod_{i=t+1}^{m-1} (q - 2i + 1)),

    even classes use the prefix-times-(P1 + P2) form whose correction sum
    starts at j = r + 1 (see the module docstring for the wrong variant).
    """
    _require_d_spec(spec)
    kp = _reduce_residue(k, known_period(spec, "Ddeform"))
    d = [math.gcd(kp, v) for v in spec.s]
    if kp % 2:
        return _odd_constituent_d(spec.m, spec.t, d)
    return _even_constituent_d(spec.m, spec.r, spec.t, d)


def chi_deform_d_tm(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of D_m(s) in the fully deformed case t = m.

    Implements the specialized formulas directly (no (m - t) terms): odd
    classes give prod_{i=1}^{m} (q - d_i - 2i + 2); even classes give

        prod_{i=1}^{r} (q - d_i - 2i + 2)
        * (prod_{i=r+1}^{m} (q - d_i - 2i + 1)
           + sum_{i=r+1}^{m} prod_{j=r+1}^{i-1} (q - d_j - 2j + 1)
                             prod_{j=i+1}^{m} (q - d_j - 2j + 3)).

    Raises SpecMismatch when t != m.  Agreement with chi_deform_d is part
    of the test suite.
    """
    _require_d_spec(spec)
    if spec.t != spec.m:
        raise SpecMismatch(
            f"specialization needs t = m, got t = {spec.t}, m = {spec.m}"
        )
    m, r = spec.m, spec.r
    kp = _reduce_residue(k, known_period(spec, "Ddeform"))
    d = [math.gcd(kp, v) for v in spec.s]
    if kp % 2:
        return Polynomial.from_roots(d[i] + 2 * i for i in range(m))
    prefix = Polynomial.from_roots(d[i] + 2 * i for i in range(r))
    bracket = Polynomial.from_roots(d[i] + 2 * i + 1 for i in range(r, m))
    for i in range(r, m):
        left = Polynomial.from_roots(d[j] + 2 * j + 1 for j in range(r, i))
        right = Polynomial.from_roots(d[j] + 2 * j - 1 for j in range(i + 1, m))
        bracket += left * right
    return prefix * bracket
