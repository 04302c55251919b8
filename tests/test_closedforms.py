"""Closed-form constituents against the literal counts and each other.

The reflection families have no formulas of their own in the package; the
classical root products below are their oracle here.  Two more oracles
live only in this file: the specialised t = m formulas of D_m(s), and the
rejected even-residue variant whose correction sum overcounts.
"""

import math

import pytest

from charquasi import (
    DeformSpec,
    EmptyArrangement,
    InvalidResidue,
    Polynomial,
    brute_force_count,
    check_gcd_property,
    chi_coxeter,
    chi_deform,
    chi_deform_a,
    chi_deform_d,
    coxeter_spec,
    deform_quasi,
    gen_coxeter,
    gen_deform,
    gen_deform_a,
    gen_deform_d,
    known_period,
    lcm_period,
    verify_minimum_period,
)
from charquasi import closedforms
from charquasi.closedforms import _even_constituent_d

from conftest import count_calls


def overcount_even_constituent_d(m: int, r: int, t: int, d) -> Polynomial:
    """The rejected even-residue constituent of D_m(s).

    It is the package's prefix * (P1 + P2) form except that the correction
    sum's first inner product starts at j = 1 instead of j = r + 1, which
    multiplies the even-prefix factors in a second time.
    """
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
        left = Polynomial.from_roots(d[j] + 2 * j + 1 for j in range(i))
        right = Polynomial.from_roots(d[j] + 2 * j - 1 for j in range(i + 1, t))
        correction += left * right
    p2 = correction * (
        Polynomial.from_roots(2 * i for i in range(t, m))
        + (m - t) * Polynomial.from_roots(2 * i for i in range(t, m - 1))
    )
    return prefix * (p1 + p2)


def chi_deform_d_tm(spec: DeformSpec, k: int) -> Polynomial:
    """Constituent of D_m(s) in the fully deformed case t = m.

    The specialised formulas, with no (m - t) terms: odd classes give
    prod_{i=1}^{m} (q - d_i - 2i + 2); even classes give

        prod_{i=1}^{r} (q - d_i - 2i + 2)
        * (prod_{i=r+1}^{m} (q - d_i - 2i + 1)
           + sum_{i=r+1}^{m} prod_{j=r+1}^{i-1} (q - d_j - 2j + 1)
                             prod_{j=i+1}^{m} (q - d_j - 2j + 3)).
    """
    assert spec.t == spec.m, spec
    m, r = spec.m, spec.r
    kp = math.gcd(k, known_period(spec, "Ddeform"))
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


class TestChiCoxeter:
    def test_a_family(self):
        qp = chi_coxeter("A", 3)
        assert qp.period == 1
        assert qp.constituent(1) == Polynomial.from_roots([0, 1, 2])

    def test_b2_constituents(self):
        qp = chi_coxeter("B", 2)
        assert str(qp.constituent(1)) == "q^2 - 4*q + 3"
        assert str(qp.constituent(2)) == "q^2 - 4*q + 4"

    def test_c2_constituents(self):
        qp = chi_coxeter("C", 2)
        assert qp.constituent(1) == Polynomial.from_roots([1, 3])
        assert qp.constituent(2) == Polynomial.from_roots([2, 4])

    def test_d2_constituents(self):
        qp = chi_coxeter("D", 2)
        assert qp.constituent(1) == Polynomial.from_roots([1, 1])
        assert qp.constituent(2) == Polynomial((2, -2, 1))

    def test_d3_even_constituent(self):
        # (q^2 - 4q + 6) * (q - 2) for m = 3.
        qp = chi_coxeter("D", 3)
        assert qp.constituent(2) == Polynomial((6, -4, 1)) * Polynomial((-2, 1))

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_brute_force(self, family, m):
        qp = chi_coxeter(family, m)
        mat = gen_coxeter(family, m)
        for q in range(1, 11):
            assert qp(q) == brute_force_count(mat, q), (family, m, q)

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_monic_of_degree_m(self, family, m):
        qp = chi_coxeter(family, m)
        assert all(p.is_monic and p.degree == m for p in qp.constituents)

    def test_empty_families(self):
        with pytest.raises(EmptyArrangement):
            chi_coxeter("A", 1)
        with pytest.raises(EmptyArrangement):
            chi_coxeter("D", 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            chi_coxeter("E", 2)


# Every reflection arrangement with hyperplanes, m = 1..6.
NONEMPTY = [(f, m) for f in "ABCD" for m in range(1, 7) if m > 1 or f in "BC"]


def _classical_count(family: str, m: int, q: int) -> int:
    """Classical root products of the reflection families, at one modulus q."""
    if family == "A":
        return math.prod(q - i for i in range(m))
    odd = math.prod(q - 2 * i + 1 for i in range(1, m + 1))
    if q % 2:
        if family == "D":
            return (q - m + 1) * math.prod(q - 2 * i + 1 for i in range(1, m))
        return odd
    if family == "B":
        return (q - m) * math.prod(q - 2 * i for i in range(1, m))
    if family == "C":
        return math.prod(q - 2 * i for i in range(1, m + 1))
    return (q * q - 2 * (m - 1) * q + m * (m - 1)) * math.prod(
        q - 2 * i for i in range(1, m - 1)
    )


class TestCoxeterAsDeformation:
    def test_mapping(self):
        assert coxeter_spec("A", 3) == ("Adeform", DeformSpec(3))
        assert coxeter_spec("B", 3) == ("Ddeform", DeformSpec(3, (1, 1, 1), 0))
        assert coxeter_spec("C", 3) == ("Ddeform", DeformSpec(3, (2, 2, 2), 3))
        assert coxeter_spec("D", 3) == ("Ddeform", DeformSpec(3, (), 0))
        assert coxeter_spec("B", 1) == ("Adeform", DeformSpec(1, (1,)))
        assert coxeter_spec("C", 1) == ("Adeform", DeformSpec(1, (2,)))

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_empty_messages(self, family):
        # coxeter_spec only maps the name; known_period refuses A_1 and D_1,
        # with the message their deformation spelling gets too.
        deform, spec = coxeter_spec(family, 1)
        assert spec == DeformSpec(1, (), 0 if family == "D" else None)
        with pytest.raises(EmptyArrangement) as exc:
            known_period(spec, deform)
        assert str(exc.value) == f"empty arrangement: {family}_1 has no hyperplanes"

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_classical_root_products(self, family, m):
        # Degree m per parity class: agreement at m + 1 moduli of each
        # parity is agreement as polynomials.
        qp = chi_coxeter(family, m)
        for q in range(1, 2 * m + 3):
            assert qp(q) == _classical_count(family, m, q), (family, m, q)

    @pytest.mark.parametrize("family, m", NONEMPTY)
    def test_generator_reads_the_deformation(self, family, m):
        deform, spec = coxeter_spec(family, m)
        gen = gen_deform_a if deform == "Adeform" else gen_deform_d
        assert gen_coxeter(family, m) == gen(spec)
        assert chi_coxeter(family, m) == deform_quasi(deform, spec)

    @pytest.mark.parametrize("family, m", NONEMPTY)
    def test_period_is_lcm_period_and_minimal(self, family, m):
        qp = chi_coxeter(family, m)
        mat = gen_coxeter(family, m)
        # A cap of n columns is exact and skips the policy limit on n.
        assert qp.period == lcm_period(mat, mat.cols).value
        assert verify_minimum_period(qp)


class TestChiDeformA:
    def test_known_constituents(self):
        spec = DeformSpec(2, (2,))
        assert chi_deform_a(spec, 1) == Polynomial.from_roots([1, 1])
        assert chi_deform_a(spec, 2) == Polynomial.from_roots([2, 1])

    def test_frozen_counts(self):
        spec = DeformSpec(2, (2,))
        assert chi_deform_a(spec, 2)(2) == 0
        assert chi_deform_a(spec, 1)(3) == 4
        assert chi_deform_a(spec, 2)(4) == 6

    def test_t0_equals_coxeter(self):
        spec = DeformSpec(4)
        assert chi_deform_a(spec, 1) == chi_coxeter("A", 4).constituent(1)

    def test_m1_t1(self):
        spec = DeformSpec(1, (3,))
        assert chi_deform_a(spec, 3) == Polynomial.from_roots([3])
        assert chi_deform_a(spec, 3)(6) == brute_force_count(
            gen_deform_a(spec), 6
        )

    def test_m1_t0_is_empty(self):
        with pytest.raises(EmptyArrangement):
            chi_deform_a(DeformSpec(1), 1)

    def test_residue_reduction_by_gcd(self):
        spec = DeformSpec(3, (6, 3))
        assert chi_deform_a(spec, 8) == chi_deform_a(spec, 2)  # gcd(6,8)=2
        assert chi_deform_a(spec, 12) == chi_deform_a(spec, 6)  # class q=0
        assert chi_deform_a(spec, 7) == chi_deform_a(spec, 1)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_residue(self, bad):
        with pytest.raises(InvalidResidue):
            chi_deform_a(DeformSpec(2, (2,)), bad)

    def test_rejects_non_integer_residue(self):
        with pytest.raises(InvalidResidue):
            chi_deform_a(DeformSpec(2, (2,)), 1.5)

    def test_matches_brute_force_on_chain(self):
        spec = DeformSpec(3, (6, 3))
        mat = gen_deform_a(spec)
        for q in range(2, 16):
            assert chi_deform_a(spec, q)(q) == brute_force_count(mat, q), q


class TestChiDeformD:
    def test_frozen_counts(self):
        spec = DeformSpec(2, (2, 1), 1)
        assert chi_deform_d(spec, 6)(6) == 12
        single = DeformSpec(2, (2,), 1)
        assert chi_deform_d(single, 3)(3) == 2
        assert chi_deform_d(single, 5)(5) == 12

    def test_t0_equals_coxeter(self):
        spec = DeformSpec(3, (), 0)
        cox = chi_coxeter("D", 3)
        assert chi_deform_d(spec, 1) == cox.constituent(1)
        assert chi_deform_d(spec, 2) == cox.constituent(2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_b_recovery(self, m):
        spec = DeformSpec(m, (1,) * m, 0)
        cox = chi_coxeter("B", m)
        assert chi_deform_d(spec, 1) == cox.constituent(1)
        assert chi_deform_d(spec, 2) == cox.constituent(2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_c_recovery(self, m):
        spec = DeformSpec(m, (2,) * m, m)
        cox = chi_coxeter("C", m)
        assert chi_deform_d(spec, 1) == cox.constituent(1)
        assert chi_deform_d(spec, 2) == cox.constituent(2)

    def test_parity_preserved_by_reduction(self):
        # The period is even, so gcd-reduction never flips parity of k.
        spec = DeformSpec(2, (2, 1), 1)
        assert chi_deform_d(spec, 4) == chi_deform_d(spec, 2)
        assert chi_deform_d(spec, 7) == chi_deform_d(spec, 1)

    def test_gcd_reduction_on_longer_period(self):
        spec = DeformSpec(2, (4, 2), 2)  # period 4
        assert chi_deform_d(spec, 6) == chi_deform_d(spec, 2)  # gcd(4,6)=2
        assert chi_deform_d(spec, 3) == chi_deform_d(spec, 1)

    def test_needs_r(self):
        # The even classes read r, which DeformSpec works out from s.
        for k in (1, 2):
            assert chi_deform_d(DeformSpec(2, (2, 1)), k) == chi_deform_d(
                DeformSpec(2, (2, 1), 1), k
            )

    def test_needs_m2(self):
        with pytest.raises(ValueError, match="needs m >= 2"):
            chi_deform_d(DeformSpec(1, (2,), 1), 1)

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2, 1), 1),
            DeformSpec(2, (3,), 0),
            DeformSpec(3, (6, 3, 1), 1),
            DeformSpec(3, (4, 2), 2),
            DeformSpec(3, (1, 1), 0),
        ],
    )
    def test_matches_brute_force(self, spec):
        mat = gen_deform_d(spec)
        for q in range(2, 15):
            assert chi_deform_d(spec, q)(q) == brute_force_count(mat, q), (
                spec,
                q,
            )

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2, 1), 1),
            DeformSpec(3, (6, 3), 1),
            DeformSpec(2, (4, 2), 2),
            DeformSpec(3, (3,), 0),
        ],
    )
    def test_gcd_property_over_full_period(self, spec):
        rho = math.lcm(spec.s[0], 2)
        by_gcd = {}
        for k in range(1, rho + 1):
            poly = chi_deform_d(spec, k)
            assert by_gcd.setdefault(math.gcd(rho, k), poly) == poly


class TestErratum:
    def test_inner_product_range_decides_the_count(self):
        spec = DeformSpec(2, (2, 1), 1)
        mat = gen_deform_d(spec)
        d = [math.gcd(2, v) for v in spec.s]
        right = _even_constituent_d(2, 1, 2, d)
        wrong = overcount_even_constituent_d(2, 1, 2, d)
        assert brute_force_count(mat, 6) == 12
        assert right(6) == 12
        assert wrong(6) == 20
        assert chi_deform_d(spec, 2) == right

    def test_variants_differ_as_polynomials(self):
        d = [math.gcd(2, v) for v in (2, 1)]
        assert _even_constituent_d(2, 1, 2, d) != overcount_even_constituent_d(
            2, 1, 2, d
        )


class TestChiDeformDTm:
    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2, 1), 1),
            DeformSpec(2, (4, 2), 2),
            DeformSpec(3, (6, 3, 1), 1),
            DeformSpec(3, (1, 1, 1), 0),
            DeformSpec(2, (3, 3), 0),
        ],
    )
    def test_agrees_with_general_formula(self, spec):
        rho = math.lcm(spec.s[0], 2)
        for k in range(1, rho + 1):
            assert chi_deform_d_tm(spec, k) == chi_deform_d(spec, k), (spec, k)

    def test_needs_r(self):
        # The oracle reads r too, and gets the one DeformSpec works out.
        for k in (1, 2):
            assert chi_deform_d_tm(DeformSpec(2, (2, 1)), k) == chi_deform_d(
                DeformSpec(2, (2, 1), 1), k
            )


# Specs that are not arrangements of the family, and the error each names.
NOT_ARRANGEMENTS = [
    ("Ddeform", DeformSpec(1, (), 0), EmptyArrangement),
    ("Ddeform", DeformSpec(1, (3,), 0), ValueError),
    ("Adeform", DeformSpec(1), EmptyArrangement),
    ("Ddeform", DeformSpec(1, (2,)), ValueError),
    ("Bdeform", DeformSpec(2, (2,)), ValueError),
]


@pytest.mark.parametrize("family, spec, error", NOT_ARRANGEMENTS)
def test_every_route_refuses_a_non_arrangement_alike(family, spec, error):
    by_family = {
        "Adeform": (gen_deform_a, lambda spec: chi_deform_a(spec, 1)),
        "Ddeform": (gen_deform_d, lambda spec: chi_deform_d(spec, 1)),
    }
    routes = [
        lambda spec: known_period(spec, family),
        lambda spec: gen_deform(family, spec),
        lambda spec: chi_deform(family, spec, 1),
        lambda spec: deform_quasi(family, spec),
        *by_family.get(family, ()),
    ]
    messages = set()
    for route in routes:
        with pytest.raises(error) as exc:
            route(spec)
        assert type(exc.value) is error
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


class TestStructuralInvariants:
    def test_deform_quasi_evaluates_each_divisor_once(self, monkeypatch):
        # Constituents depend only on gcd(k, rho): one formula call per
        # divisor of rho = 12, where one per k would make 12.
        calls = count_calls(monkeypatch, closedforms, "chi_deform")
        qp = deform_quasi("Adeform", DeformSpec(3, (12, 6)))
        assert qp.period == 12
        assert calls["chi_deform"] == 6

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2,)),
            DeformSpec(3, (6, 3)),
            DeformSpec(3, (4, 2, 2)),
        ],
    )
    def test_a_deform_monic_degree_m(self, spec):
        rho = spec.s[0]
        for k in range(1, rho + 1):
            poly = chi_deform_a(spec, k)
            assert poly.is_monic and poly.degree == spec.m

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2, 1), 1),
            DeformSpec(3, (6, 3, 1), 1),
            DeformSpec(4, (4, 2), 2),
        ],
    )
    def test_d_deform_monic_degree_m(self, spec):
        rho = math.lcm(spec.s[0], 2)
        for k in range(1, rho + 1):
            poly = chi_deform_d(spec, k)
            assert poly.is_monic and poly.degree == spec.m
