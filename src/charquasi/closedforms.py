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
formulas directly evaluable at raw moduli q.  The index is checked as
QuasiPolynomial checks it: anything but a positive integer raises
InvalidResidue.

One pitfall is documented here because it is easy to reintroduce: in the
even-residue type-D formula the correction sum's first inner product runs
over j = r+1, ..., i-1.  A plausible-looking variant that starts at j = 1
re-multiplies the even-prefix factors and overcounts; for m = 2, r = 1,
s = (2, 1) at q = 6 it yields 20 where direct enumeration gives 12.  The
wrong variant lives in tests/test_closedforms.py, which pins the
disagreement; the library holds only the formula it evaluates.
"""

import math
from collections.abc import Sequence

from .arrangements import DeformSpec, coxeter_spec, known_period
from .counting import Polynomial, QuasiPolynomial, _residue_index


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
    rho = known_period(spec, family)
    by_gcd = {g: chi_deform(family, spec, g) for g in range(1, rho + 1) if rho % g == 0}
    return QuasiPolynomial(rho, (by_gcd[math.gcd(k, rho)] for k in range(1, rho + 1)))


def chi_deform(family: str, spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of a deformation family for the residue class of k.

    The one place a family name picks its formula; an unknown name fails
    in known_period as it does everywhere.
    """
    known_period(spec, family)
    return chi_deform_a(spec, k) if family == "Adeform" else chi_deform_d(spec, k)


def chi_deform_a(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of A_m(s) for the residue class of k:

        prod_{i=1}^{t} (q - d_i - i + 1) * prod_{i=t+1}^{m} (q - i + 1),

    with d_i = gcd(k', s_i) after gcd-reduction of k.  The parity field r
    is ignored.
    """
    kp = math.gcd(known_period(spec, "Adeform"), _residue_index(k))
    roots = [math.gcd(kp, v) + i for i, v in enumerate(spec.s)]
    roots += range(spec.t, spec.m)
    return Polynomial.from_roots(roots)


def _odd_constituent_d(m: int, t: int, d: Sequence[int]) -> Polynomial:
    head = Polynomial.from_roots(d[i] + 2 * i for i in range(t))
    tail = Polynomial.from_roots(2 * i + 1 for i in range(t, m))
    tail += (m - t) * Polynomial.from_roots(2 * i + 1 for i in range(t, m - 1))
    return head * tail


def _even_constituent_d(m: int, r: int, t: int, d: Sequence[int]) -> Polynomial:
    """Even-residue constituent prefix * (P1 + P2) of D_m(s)."""
    prefix = Polynomial.from_roots(d[i] + 2 * i for i in range(r))
    p1 = Polynomial.from_roots(d[i] + 2 * i + 1 for i in range(r, t))
    p1 *= (
        Polynomial.from_roots(2 * i + 2 for i in range(t, m))
        + 2 * (m - t) * Polynomial.from_roots(2 * i + 2 for i in range(t, m - 1))
        + (m - t) * (m - t - 1)
        * Polynomial.from_roots(2 * i + 2 for i in range(t, m - 2))
    )
    correction = Polynomial(())
    for i in range(r, t):
        left = Polynomial.from_roots(d[j] + 2 * j + 1 for j in range(r, i))
        right = Polynomial.from_roots(d[j] + 2 * j - 1 for j in range(i + 1, t))
        correction += left * right
    p2 = correction * (
        Polynomial.from_roots(2 * i for i in range(t, m))
        + (m - t) * Polynomial.from_roots(2 * i for i in range(t, m - 1))
    )
    return prefix * (p1 + p2)


def chi_deform_d(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of D_m(s) for the residue class of k.

    k is gcd-reduced modulo the period lcm(s_1, 2) (2 when t = 0); the
    period is even, so the reduction preserves the parity of k.  Odd
    classes use

        prod_{i=1}^{t} (q - d_i - 2i + 2)
        * (prod_{i=t+1}^{m} (q - 2i + 1) + (m - t) prod_{i=t+1}^{m-1} (q - 2i + 1)),

    even classes use the prefix-times-(P1 + P2) form.  The prefix holds the
    r even entries of s (spec.r, worked out from s), and the correction sum
    starts at j = r + 1 (see the module docstring for the wrong variant).
    """
    kp = math.gcd(known_period(spec, "Ddeform"), _residue_index(k))
    d = [math.gcd(kp, v) for v in spec.s]
    if kp % 2:
        return _odd_constituent_d(spec.m, spec.t, d)
    return _even_constituent_d(spec.m, spec.r, spec.t, d)
