"""Counters, polynomial types, interpolation and period predicates.

brute_force_count is the ground truth by definition (it enumerates the
counted set literally), so everything else is measured against it; its
numpy kernel is additionally measured against _plain_count, a plain-integer
loop over the same points kept here as its oracle.
"""

import math
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charquasi import (
    BudgetExceeded,
    DeformSpec,
    IntMatrix,
    NotIntegral,
    NotMonic,
    Polynomial,
    QuasiPolynomial,
    TooManyColumns,
    brute_force_count,
    check_gcd_property,
    chi_coxeter,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    interpolate_quasi,
    lcm_period,
    snf_count,
    verify_minimum_period,
)
from charquasi.counting import _CHUNK, _lagrange_integer_poly
from charquasi.intlinalg import _lattice_table

from conftest import EDGE_MATRICES, int_matrices


def _plain_count(mat: IntMatrix, q: int) -> int:
    """|M_S(q)| by a plain-integer loop over the points, short-circuiting per point."""
    cols = mat.columns()
    count = 0
    for x in product(range(q), repeat=mat.rows):
        for col in cols:
            if sum(a * b for a, b in zip(x, col)) % q == 0:
                break
        else:
            count += 1
    return count


class TestPolynomial:
    def test_strips_trailing_zeros(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).coeffs == ()

    def test_degree_and_monic(self):
        assert Polynomial(()).degree == -1
        assert Polynomial((5,)).degree == 0
        assert Polynomial((3, 1)).is_monic
        assert not Polynomial((3, 2)).is_monic

    def test_from_roots(self):
        assert Polynomial.from_roots([1, 3]) == Polynomial((3, -4, 1))
        assert Polynomial.from_roots([]) == Polynomial((1,))

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        q = Polynomial((-1, 1))
        assert p * q == Polynomial((-1, 0, 1))
        assert p + q == Polynomial((0, 2))
        assert p - q == Polynomial((2,))
        assert 3 * p == Polynomial((3, 3))
        assert p + 1 == Polynomial((2, 1))
        assert 1 - q == Polynomial((2, -1))

    def test_evaluation(self):
        assert Polynomial((3, -4, 1))(5) == 8
        assert Polynomial(())(7) == 0

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((5,), "5"),
            ((0, 1), "q"),
            ((1, -1), "-q + 1"),
            ((3, -4, 1), "q^2 - 4*q + 3"),
            ((5, 0, 0, 2), "2*q^3 + 5"),
            ((0, -2, -1), "-q^2 - 2*q"),
        ],
    )
    def test_text(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(-10, 10))
    def test_add_mul_agree_with_evaluation(self, coeffs, x):
        p = Polynomial(tuple(coeffs))
        q = Polynomial((2, 1))
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


class TestQuasiPolynomial:
    def test_residue_indexing(self):
        qp = chi_coxeter("B", 2)
        assert qp.constituent(1) == qp.constituent(3)
        assert qp.constituent(2) == qp.constituent(4)
        assert qp(5) == qp.constituent(1)(5)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(2, (Polynomial((0, 1)),))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(1, (Polynomial((1, 2)),))

    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(2, (Polynomial((0, 1)), Polynomial((0, 0, 1))))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(0, ())

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            chi_coxeter("B", 2).constituent(0)


class TestBruteForce:
    def test_single_hyperplane(self):
        # One hyperplane x = 0 in dimension 1: the q - 1 nonzero residues.
        assert brute_force_count(IntMatrix(((1,),)), 7) == 6

    def test_known_values_b2(self):
        mat = gen_coxeter("B", 2)
        assert brute_force_count(mat, 5) == 8
        assert brute_force_count(mat, 4) == 4

    def test_known_values_a_deform(self):
        mat = gen_deform_a(DeformSpec(2, (2,)))
        assert [brute_force_count(mat, q) for q in (2, 3, 4)] == [0, 4, 6]

    def test_known_value_d_deform(self):
        mat = gen_deform_d(DeformSpec(2, (2, 1), 1))
        assert brute_force_count(mat, 6) == 12

    def test_q1_is_zero(self):
        assert brute_force_count(gen_coxeter("A", 4), 1) == 0

    def test_rejects_q0(self):
        with pytest.raises(ValueError):
            brute_force_count(gen_coxeter("B", 2), 0)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_count(gen_coxeter("B", 2), 7, budget=48)
        assert brute_force_count(gen_coxeter("B", 2), 7, budget=49) == 24

    def test_huge_entries_use_exact_path(self):
        # Wide enough entries route around the 64-bit fast path.
        big = 10**19
        mat = IntMatrix(((big + 1, 1), (1, -1)))
        small = IntMatrix(((1, 1), (1, -1)))  # same residues mod 5
        assert brute_force_count(mat, 5) == brute_force_count(small, 5)

    @given(int_matrices(), st.sampled_from([*range(2, 10), 255, 256, 257]))
    @settings(max_examples=100, deadline=None)
    def test_fast_path_matches_plain_loop(self, mat, q):
        # 255..257 cross the uint8/uint16 residue boundary; the plain loop
        # enumerates them only for m <= 2.
        assume(q <= 9 or mat.rows <= 2)
        assert brute_force_count(mat, q) == _plain_count(mat, q)

    @pytest.mark.parametrize("q", [65535, 65536, 65537, 3 * _CHUNK + 5])
    def test_one_coordinate_matches_closed_form(self, q):
        # x * s = 0 mod q for exactly gcd(s, q) residues x.  65535..65537
        # cross the uint16/uint32 boundary; q > _CHUNK enumerates the one
        # coordinate in slices.
        for s in (1, 2, 6, 255, 256, q - 1, q, 2 * q, 2**64 + 6):
            assert brute_force_count(IntMatrix(((s,),)), q) == q - math.gcd(s, q)

    def test_refuses_modulus_from_2_31_at_any_budget(self):
        mat = IntMatrix(((1,),))
        for q in (2**31, 2**31 + 1, 2**64):
            with pytest.raises(BudgetExceeded, match="no budget lifts it"):
                brute_force_count(mat, q, budget=10**30)
        with pytest.raises(BudgetExceeded, match="budget="):
            brute_force_count(mat, 2**31 - 1, budget=10)

    def test_budget_message_names_the_setting(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_count(gen_coxeter("B", 2), 7, budget=48)
        text = str(exc.value)
        assert "7^2 = 49 points" in text
        for name in ("budget=", "brute_force_count", "interpolate_quasi"):
            assert name in text

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_plain_loop_and_snf(self, mat):
        # 257 is the first modulus whose residues need uint16.  The plain
        # loop is too slow for the 257^3 points of the m = 3 inputs.
        for q in [*range(2, 13), 257]:
            want = snf_count(mat, q)
            assert brute_force_count(mat, q) == want, q
            if q**mat.rows <= 257**2:
                assert _plain_count(mat, q) == want, q


class TestSnfCount:
    def test_single_hyperplane(self):
        # Two subsets: the empty one contributes 7, {1} contributes -gcd(1, 7).
        assert snf_count(IntMatrix(((1,),)), 7) == 6

    def test_known_values(self):
        mat = gen_coxeter("B", 2)
        assert snf_count(mat, 5) == 8
        assert snf_count(mat, 4) == 4

    def test_a_deform_even_modulus_empty(self):
        # 2*x1 = 0 holds for every x1 mod 2, so the complement is empty.
        assert snf_count(gen_deform_a(DeformSpec(2, (2,))), 2) == 0

    def test_q1_is_zero(self):
        assert snf_count(gen_coxeter("D", 3), 1) == 0

    def test_rejects_q0(self):
        with pytest.raises(ValueError):
            snf_count(gen_coxeter("B", 2), 0)

    def test_column_limit(self):
        with pytest.raises(TooManyColumns):
            snf_count(gen_coxeter("B", 5), 5)  # 25 columns
        mat = gen_coxeter("B", 3)  # 9 columns
        assert snf_count(mat, 5) == brute_force_count(mat, 5)

    @given(int_matrices(max_rows=3, max_cols=5), st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, mat, q):
        assert snf_count(mat, q) == brute_force_count(mat, q)

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_brute_force(self, mat):
        for q in range(1, 13):
            assert snf_count(mat, q) == brute_force_count(mat, q)

    def test_one_lattice_table_per_matrix(self):
        # The uncapped period, every modulus and an over-wide cap all read
        # the same cached table, so it is built exactly once.
        mat = gen_deform_d(DeformSpec(3, (6, 3), 1))
        _lattice_table.cache_clear()
        lcm_period(mat)
        for q in range(1, 13):
            snf_count(mat, q)
        lcm_period(mat, mat.cols + 3)
        assert _lattice_table.cache_info().misses == 1


class TestInterpolation:
    def test_b2_matches_closed_form(self):
        qp = interpolate_quasi(gen_coxeter("B", 2), 2)
        assert qp == chi_coxeter("B", 2)

    def test_c2_matches_closed_form(self):
        qp = interpolate_quasi(gen_coxeter("C", 2), 2)
        assert qp == chi_coxeter("C", 2)

    def test_a_deform_known_constituents(self):
        qp = interpolate_quasi(gen_deform_a(DeformSpec(2, (2,))), 2)
        assert qp.constituent(1) == Polynomial.from_roots([1, 1])
        assert qp.constituent(2) == Polynomial.from_roots([1, 2])

    def test_a2_period_one(self):
        qp = interpolate_quasi(gen_coxeter("A", 2), 1)
        assert qp.constituents == (Polynomial((0, -1, 1)),)

    def test_multiple_of_minimum_period_works(self):
        # Any multiple of the true period interpolates consistently.
        qp = interpolate_quasi(gen_coxeter("B", 2), 4)
        assert qp.constituent(1) == qp.constituent(3)
        assert qp.constituent(2) == qp.constituent(4)
        expanded = interpolate_quasi(gen_coxeter("A", 2), 3)
        assert expanded.constituents == (Polynomial((0, -1, 1)),) * 3

    def test_wrong_period_raises_not_monic(self):
        with pytest.raises(NotMonic):
            interpolate_quasi(gen_coxeter("B", 2), 1)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            interpolate_quasi(gen_coxeter("B", 2), 0)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            interpolate_quasi(gen_coxeter("B", 2), 2, budget=10)

    def test_lagrange_exact(self):
        poly = _lagrange_integer_poly([2, 3, 4], [0, 0, 4])
        assert poly == Polynomial((12, -10, 2))

    def test_lagrange_rejects_fractional(self):
        with pytest.raises(NotIntegral):
            _lagrange_integer_poly([2, 3, 4], [0, 0, 1])

    @pytest.mark.parametrize(
        "mat, rho",
        [
            (gen_coxeter("B", 3), 2),
            (gen_deform_d(DeformSpec(2, (2, 1), 1)), 2),
            (gen_deform_a(DeformSpec(2, (4, 2))), 4),
        ],
    )
    def test_extrapolation_beyond_samples(self, mat, rho):
        # Constituents fitted on the first m+1 samples must keep matching
        # the literal count at the next two sample points of each class.
        qp = interpolate_quasi(mat, rho)
        m = mat.rows
        for k in range(1, rho + 1):
            first = k if k >= 2 else 1 + rho
            for j in (m + 1, m + 2):
                q = first + rho * j
                assert qp.constituent(k)(q) == brute_force_count(mat, q)


class TestPeriodPredicates:
    def test_minimum_period_true_for_b2(self):
        assert verify_minimum_period(chi_coxeter("B", 2))

    def test_minimum_period_false_when_constituents_repeat(self):
        p = Polynomial((0, -1, 1))
        assert not verify_minimum_period(QuasiPolynomial(2, (p, p)))

    def test_minimum_period_trivial_for_period_one(self):
        assert verify_minimum_period(chi_coxeter("A", 3))

    def test_minimum_period_checks_every_divisor(self):
        p1 = Polynomial.from_roots([1])
        p2 = Polynomial.from_roots([2])
        qp = QuasiPolynomial(4, (p1, p2, p1, p2))
        assert not verify_minimum_period(qp)  # period 2 suffices

    def test_gcd_property_true_for_closed_forms(self):
        assert check_gcd_property(chi_coxeter("C", 3))

    def test_gcd_property_false_for_hand_built(self):
        polys = tuple(Polynomial.from_roots([c]) for c in (1, 2, 3, 4))
        assert not check_gcd_property(QuasiPolynomial(4, polys))

    def test_gcd_property_groups_equal_gcds(self):
        p1 = Polynomial.from_roots([1])
        p2 = Polynomial.from_roots([2])
        p4 = Polynomial.from_roots([3])
        qp = QuasiPolynomial(4, (p1, p2, p1, p4))
        assert check_gcd_property(qp)
