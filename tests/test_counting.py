"""Counters, polynomial types, interpolation and period predicates.

brute_force_count is the ground truth by definition (it enumerates the
counted set literally), so everything else is measured against it; its
bitset kernel is additionally measured against _plain_count, a plain-integer
loop over the same points kept here as its oracle.  The integer Newton step
of interpolation is measured against _lagrange_integer_poly, Lagrange
interpolation over the rationals.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charquasi import (
    BudgetExceeded,
    DeformSpec,
    InvalidResidue,
    IntMatrix,
    NotIntegral,
    NotMonic,
    Polynomial,
    QuasiPolynomial,
    brute_force_count,
    chi_coxeter,
    deform_quasi,
    gen_coxeter,
    gen_deform,
    gen_deform_a,
    gen_deform_d,
    interpolate_quasi,
    lcm_period,
    snf_count,
    verify_minimum_period,
)
from charquasi import counting
from charquasi.counting import _TABLE_BITS, _newton_integer_poly
from charquasi.polynomials import divisors
from charquasi.intlinalg import _lattice_table

from conftest import (
    EDGE_MATRICES,
    count_calls,
    deform_cases,
    every_class,
    gcd_property,
    int_matrices,
    interpolate_every_class,
)


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


def _whitney_polynomial(mat: IntMatrix) -> Polynomial:
    """Characteristic polynomial of the real arrangement, with no Smith form.

    Whitney's formula: chi(q) = sum over column subsets J of
    (-1)^|J| q^(m - rank J), each rank by exact Fraction elimination.  The
    walk decides the columns in order and skips a subtree whose next column
    lies in the span of the chosen ones: taking that column or not keeps
    every rank and flips every sign, so the subtree sums to 0.  The chosen
    columns therefore stay independent, and rank J = |J| at every leaf.
    """
    m, cols = mat.rows, [[Fraction(v) for v in col] for col in mat.columns()]
    coeffs = [0] * (m + 1)

    def walk(rows: list[tuple[int, list[Fraction]]], k: int) -> None:
        if k == len(cols):
            coeffs[m - len(rows)] += (-1) ** len(rows)
            return
        rest = cols[k]
        for pivot, row in rows:  # each row is 1 at its pivot, 0 at earlier pivots
            rest = [a - rest[pivot] * b for a, b in zip(rest, row)]
        if not any(rest):
            return
        walk(rows, k + 1)
        pivot = next(i for i, v in enumerate(rest) if v)
        walk([*rows, (pivot, [v / rest[pivot] for v in rest])], k + 1)

    walk([], 0)
    return Polynomial(coeffs)


def _lagrange_integer_poly(xs: list[int], ys: list[int]) -> Polynomial:
    """Interpolating polynomial through (xs[i], ys[i]) over the rationals; must be integral."""
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


def _mixed_matrix(m: int) -> IntMatrix:
    """Columns a, e_m, -a and e_m again (so tables are shared), plus one more."""
    a = tuple(range(1, m + 1))
    e = (0,) * (m - 1) + (1,)
    return IntMatrix.from_columns([a, e, tuple(-v for v in a), e, (1, 4, 6, 2, 8)[:m]])


@st.composite
def _block_split_cases(draw):
    """(table_bits, matrix, q) with the block layout changing at small q.

    A shrunken _TABLE_BITS moves every change of layout (how many block
    coordinates, whether the top one or a lone coordinate is cut into
    slices, a short last slice) down to moduli the plain loop can
    enumerate: 3, 4, 5 and 7 cut a lone coordinate, 2^7 and 2^9 give
    blocks of two to four coordinates.  Columns may be repeated, negated,
    or multiplied by q so that every point is ruled out.
    """
    table_bits = draw(st.sampled_from([3, 4, 5, 7, 2**7, 2**9, _TABLE_BITS]))
    m = draw(st.integers(1, 5))
    q = draw(st.integers(2, (40, 40, 17, 9, 6)[m - 1]))
    column = st.lists(st.integers(-5, 5), min_size=m, max_size=m).filter(any)
    cols = draw(st.lists(column, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        sign = draw(st.sampled_from([1, -1]))
        cols.append([sign * v for v in draw(st.sampled_from(cols))])
    if draw(st.integers(0, 3)) == 0:
        cols.append([q * v for v in draw(st.sampled_from(cols))])
    return table_bits, IntMatrix.from_columns(cols), q


def _sign_examples(test):
    """Add fixed cases for the sign of the kernel's mask lookup to a test.

    A column next to its negation, and columns whose prefix entries are
    all 0 mod q, at k = 1, 2 and 3 block coordinates, each with a whole
    and a sliced top coordinate.  A wrong sign shows on a whole top only
    for a negated column read through its partner's mask; on a sliced one
    it reads the block shifted by minus the slice start, which the count
    sees when the slices miss residues of another gcd with q, as the short
    last slices here do.
    """
    layouts = [
        # (table_bits, m, q, k): top = q, then top < q.
        (_TABLE_BITS, 2, 8, 1), (3, 2, 8, 1),  # slices 3, 3, 2
        (2**7, 3, 4, 2), (2**10, 3, 12, 2),  # slices 7, 5
        (2**9, 4, 4, 3), (2**10, 4, 6, 3),  # slices 4, 2
    ]
    for table_bits, m, q, k in layouts:
        a = (3, 1, -2, 2)[:m]
        negated = [a, tuple(-v for v in a), (1,) * m]
        zero_prefix = [
            (q,) * (m - k) + (2, -1, 0)[:k],
            (0,) * (m - k) + (2, 1, 3)[:k],
            (1, 0, 3, 1)[:m],
        ]
        for cols in (negated, zero_prefix):
            test = example((table_bits, IntMatrix.from_columns(cols), q))(test)
    return test


def _every_divisor_minimum(qp: QuasiPolynomial) -> bool:
    """Oracle for verify_minimum_period: tries every proper divisor d of rho
    on the rho-long class sequence, with no use of the gcd property."""
    rho, cs = qp.period, every_class(qp)
    for d in range(1, rho):
        if rho % d:
            continue
        if all(cs[k] == cs[k % d] for k in range(rho)):
            return False
    return True


@st.composite
def _periodic_quasi(draw):
    """A quasi-polynomial of composite period rho that repeats with a drawn d | rho.

    The constituents of period d, one per divisor of d, are drawn; the
    divisor g of rho takes the one of gcd(g, d).
    """
    rho = draw(st.sampled_from([4, 6, 8, 9, 12, 18, 24, 30, 36, 60, 72, 210]))
    d = draw(st.sampled_from(divisors(rho)))
    roots = draw(st.lists(st.integers(0, 2), min_size=len(divisors(d)), max_size=len(divisors(d))))
    by_gcd = {g: Polynomial.from_roots([r]) for g, r in zip(divisors(d), roots)}
    return QuasiPolynomial(rho, tuple(by_gcd[math.gcd(g, d)] for g in divisors(rho)))


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
        assert 3 * p == Polynomial((3, 3))
        assert p + 1 == Polynomial((2, 1))
        assert 1 + p == Polynomial((2, 1))

    def test_no_subtraction(self):
        p = Polynomial((1, 1))
        for subtract in (lambda: p - p, lambda: p - 1, lambda: 1 - p, lambda: -p):
            with pytest.raises(TypeError):
                subtract()

    def test_foreign_operands_raise_type_error(self):
        # + and * return NotImplemented for anything but an int or a
        # Polynomial, so Python raises TypeError on either side.
        p = Polynomial((1, 1))
        for combine in (lambda: p + "x", lambda: p * 1.5, lambda: 1.5 * p):
            with pytest.raises(TypeError):
                combine()

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

    def test_rejects_bad_constituent_at_any_divisor(self):
        # Period 6 stores the divisors 1, 2, 3, 6; a non-monic or
        # wrong-degree constituent at any of them is refused.
        good = Polynomial.from_roots((1, 2))
        for bad in (Polynomial((1, 2, 2)), Polynomial.from_roots((1,))):
            for i in range(4):
                with pytest.raises(ValueError):
                    QuasiPolynomial(6, (good,) * i + (bad,) + (good,) * (3 - i))
        QuasiPolynomial(6, (good,) * 4)

    def test_stores_one_constituent_per_divisor(self):
        # Class k reads the constituent of gcd(k, period); a period-long
        # tuple is refused.
        polys = tuple(Polynomial.from_roots([c]) for c in range(6))
        qp = QuasiPolynomial(12, polys)
        for k in range(1, 25):
            assert qp.constituent(k) == polys[divisors(12).index(math.gcd(k, 12))], k
        with pytest.raises(ValueError, match="need exactly 6 constituents, got 12"):
            QuasiPolynomial(12, polys * 2)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(0, ())

    def test_rejects_bad_residue(self):
        # The package's one residue-index check.  Like every refusal of
        # the package, it is a ValueError.
        qp = chi_coxeter("B", 2)
        for bad in (0, -3, 1.5, "1"):
            with pytest.raises(InvalidResidue):
                qp.constituent(bad)
        assert issubclass(InvalidResidue, ValueError)

    def test_str_is_the_listing(self, monkeypatch):
        # One line per class k = 1..period, and each stored constituent,
        # one per divisor, is formatted once.
        text = Polynomial.__str__
        odd, even = chi_coxeter("C", 2).constituents
        formatted = []
        monkeypatch.setattr(Polynomial, "__str__", lambda p: formatted.append(p) or text(p))
        listing = str(QuasiPolynomial(6, (odd, even, odd, even)))
        assert listing == (
            "period 6\nk=1: q^2 - 4*q + 3\nk=2: q^2 - 6*q + 8\nk=3: q^2 - 4*q + 3\n"
            "k=4: q^2 - 6*q + 8\nk=5: q^2 - 4*q + 3\nk=6: q^2 - 6*q + 8\n"
        )
        assert formatted == [odd, even, odd, even]

    @pytest.mark.parametrize("period", [1, 4095, 4096, 4097, 12288, 30030])
    def test_listing_pieces_are_the_period_line_then_blocks(self, period):
        # str() joins the pieces; each block after the period line holds
        # at most 4096 whole lines, in class order.
        qp = QuasiPolynomial(period, [Polynomial((-g, 1)) for g in divisors(period)])
        pieces = list(qp._listing())
        assert "".join(pieces) == str(qp)
        assert pieces[0] == f"period {period}\n"
        sizes = [piece.count("\n") for piece in pieces[1:]]
        assert all(piece.endswith("\n") for piece in pieces)
        assert sizes == [min(4096, period - lo) for lo in range(0, period, 4096)]
        assert str(qp).splitlines()[1:] == [
            f"k={k}: q - {math.gcd(k, period)}" for k in range(1, period + 1)
        ]


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
        # Entries past 64 bits are reduced mod q exactly, as Python integers.
        big = 10**19
        mat = IntMatrix(((big + 1, 1), (1, -1)))
        small = IntMatrix(((1, 1), (1, -1)))  # same residues mod 5
        assert brute_force_count(mat, 5) == brute_force_count(small, 5)

    @given(int_matrices(), st.sampled_from([*range(2, 10), 255, 256, 257]))
    @settings(max_examples=100, deadline=None)
    def test_fast_path_matches_plain_loop(self, mat, q):
        # 255..257 give one-coordinate blocks (m <= 2) of up to 257 points,
        # which the plain loop can still enumerate.
        assume(q <= 9 or mat.rows <= 2)
        assert brute_force_count(mat, q) == _plain_count(mat, q)

    @pytest.mark.parametrize("q", [65535, 65536, 65537, 3 * 2**16 + 5])
    def test_one_coordinate_matches_closed_form(self, q):
        # x * s = 0 mod q for exactly gcd(s, q) residues x.  With
        # _TABLE_BITS = 2^16 the coordinate is one mask up to q = 65536;
        # 65537 and 3 * 2^16 + 5 are enumerated in slices, the last one short.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_TABLE_BITS", 2**16)
            for s in (1, 2, 6, 255, 256, q - 1, q, 2 * q, 2**64 + 6):
                assert brute_force_count(IntMatrix(((s,),)), q) == q - math.gcd(s, q)

    @pytest.mark.parametrize("table_bits", [3, 2**7, 2**9, _TABLE_BITS])
    def test_q1_is_zero_on_every_layout(self, table_bits):
        # Every residue is 0 mod 1, so each layout rules out every point
        # through the general path.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_TABLE_BITS", table_bits)
            for m in range(1, 6):
                assert brute_force_count(_mixed_matrix(m), 1) == 0, m

    @pytest.mark.parametrize(
        "family, m, q, built",
        [
            ("B", 4, 80, {"_column_table": 39}),  # k = 3: 2 * 80^3 <= 2^20
            ("B", 4, 90, {"_column_table": 26}),  # k = 2: 2 * 90^3 > 2^20
            ("B", 2, 257, {"_Progression": 4}),  # k = 1: one progression per column
        ],
    )
    def test_layout_work_counts(self, monkeypatch, family, m, q, built):
        # The _column_table calls (one per block column, and one per table
        # built, for the level below it) and progressions of a call pin its
        # block layout on both sides of a change of k; a wider or narrower
        # threshold keeps every count right but moves these.
        calls = count_calls(monkeypatch, counting, "_column_table", "_Progression")
        assert brute_force_count(gen_coxeter(family, m), q) == chi_coxeter(
            family, m
        ).constituent(q)(q)
        assert dict(calls) == built

    def test_column_table_builds_one_coset_start_from_min_span_top_rows(self):
        # Cost pin: s = 4, q = top = 12 gives g = 4 cosets of span 3.  Each
        # start reads the lower table min(span, top) = 3 times and the rest
        # of its coset span - 1 = 2 times: 4 * (3 + 2) = 20 reads.  A start
        # built from all top rows reads it 4 * (12 + 2) = 56 times and
        # still gives the same table.
        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        lower = CountingList([1] + [0] * 11)
        table = counting._column_table((4,), 12, 12, {(): lower})
        assert CountingList.reads == 20
        assert table == counting._column_table((4,), 12, 12, {})

    def test_point_budget_is_the_only_limit_on_q(self):
        mat = IntMatrix(((1,),))
        with pytest.raises(BudgetExceeded, match="budget="):
            brute_force_count(mat, 2**31)
        # 2^31 + 11 is prime, so gcd(s, q) is 1 or q.
        q = 2**31 + 11
        for s in (1, 2**64 + 6, q):
            want = q - math.gcd(s, q)
            assert brute_force_count(IntMatrix(((s,),)), q, budget=q) == want

    def test_one_coordinate_memory_does_not_grow_with_q(self):
        # 10^8 points are 96 slices of at most 2^20 bits.  Only the current
        # slice's masks (128 KiB per column) are live, so the peak must not
        # grow with the number of slices.
        mat = IntMatrix(((1, 2, 3),))
        tracemalloc.start()
        try:
            count = brute_force_count(mat, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 10**8 - 2  # x = 0 and x = q / 2 are ruled out
        assert peak < 2 * 2**20, peak

    def test_budget_message_names_the_setting(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_count(gen_coxeter("B", 2), 7, budget=48)
        text = str(exc.value)
        assert "7^2 = 49 points" in text
        for name in ("budget=", "brute_force_count", "interpolate_quasi", "--method snf"):
            assert name in text

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_plain_loop_and_snf(self, mat):
        # At 257 the m = 3 inputs get a two-coordinate block whose top
        # coordinate is sliced.  The plain loop is too slow for their 257^3
        # points.
        for q in [*range(2, 13), 257]:
            want = snf_count(mat, q)
            assert brute_force_count(mat, q) == want, q
            if q**mat.rows <= 257**2:
                assert _plain_count(mat, q) == want, q

    @_sign_examples
    @given(_block_split_cases())
    @settings(max_examples=150, deadline=None)
    def test_block_splits_match_plain_loop(self, case):
        table_bits, mat, q = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_TABLE_BITS", table_bits)
            assert brute_force_count(mat, q) == _plain_count(mat, q)

    @pytest.mark.parametrize(
        "wide, narrow, m, q",
        [
            # One coordinate: one mask at q <= narrow, then slices.
            (2**9, 4, 1, 4), (2**9, 4, 1, 5), (2**9, 4, 1, 9),
            (2**7, 3, 2, 3), (2**7, 3, 2, 4),
            # The last q with a table per column, then one coordinate.
            (2**7, 3, 3, 8), (2**7, 3, 3, 9), (2**9, 4, 3, 16), (2**9, 4, 3, 17),
            # A composite q whose top coordinate takes four slices.
            (2**9, 4, 3, 12),
            # Three block coordinates, then two.
            (2**7, 3, 4, 4), (2**7, 3, 4, 5), (2**9, 4, 4, 6), (2**9, 4, 4, 7),
            # Four block coordinates, then three.
            (2**7, 3, 5, 2), (2**7, 3, 5, 3), (2**9, 4, 5, 4), (2**9, 4, 5, 5),
        ],
    )
    def test_layout_boundaries_match_plain_loop(self, wide, narrow, m, q):
        # Each case runs under two values of _TABLE_BITS: the wide one sets
        # how many block coordinates there are, the narrow one (below 8, so
        # always one coordinate) cuts that coordinate into slices.
        mat = _mixed_matrix(m)
        zeroed = IntMatrix.from_columns([*mat.columns(), (q,) * m])
        want = _plain_count(mat, q)
        for table_bits in (wide, narrow):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_TABLE_BITS", table_bits)
                assert brute_force_count(mat, q) == want, table_bits
                assert brute_force_count(zeroed, q) == 0, table_bits

    @pytest.mark.parametrize("m, q", [(3, 101), (3, 102), (4, 80), (4, 81), (5, 26), (5, 27)])
    def test_real_layout_boundaries_match_snf(self, m, q):
        # At the real limits the layout changes here: 101 is the last full
        # top coordinate of a two-coordinate block, 80 and 26 the last q
        # with three and four block coordinates.
        mat = _mixed_matrix(m)
        assert brute_force_count(mat, q) == snf_count(mat, q)


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
        # There is none: the cost is the lattice table, not the width, so
        # B5 (25 columns) and D6 (30) are counted in full.
        for family, m in (("B", 5), ("D", 6)):
            mat, qp = gen_coxeter(family, m), chi_coxeter(family, m)
            for q in range(1, 13):
                assert snf_count(mat, q) == qp(q), (family, m, q)

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
        # Every modulus reads the same cached table, so it is built exactly
        # once; the period calls around them build none.
        mat = gen_deform_d(DeformSpec(3, (6, 3), 1))
        _lattice_table.cache_clear()
        lcm_period(mat)
        for q in range(1, 13):
            snf_count(mat, q)
        lcm_period(mat, mat.cols + 3)
        assert _lattice_table.cache_info().misses == 1


class TestCoprimeConstituent:
    """For q coprime to rho every divisor gcd is 1, so the count is Whitney's
    polynomial (Kamiya-Takemura-Terao 2008): an oracle that shares no Smith
    form or lattice code with snf_count and no formula with the closed forms.
    """

    def test_whitney_polynomial_of_b2(self):
        assert _whitney_polynomial(gen_coxeter("B", 2)).coeffs == (3, -4, 1)

    @given(int_matrices(max_rows=3, max_cols=7, max_abs=4))
    @settings(max_examples=100, deadline=None)
    def test_snf_count_at_coprime_moduli(self, mat):
        chi, rho = _whitney_polynomial(mat), lcm_period(mat).value
        for q in range(2, 41):
            if math.gcd(q, rho) == 1:
                assert snf_count(mat, q) == chi(q), q

    @given(deform_cases())
    @example(("Ddeform", DeformSpec(4, (6, 3, 1))))
    @example(("Adeform", DeformSpec(4, (12, 6, 3, 1))))
    @example(("Ddeform", DeformSpec(3, (2, 2))))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_class_one(self, case):
        family, spec = case
        assert deform_quasi(family, spec).constituent(1) == _whitney_polynomial(
            gen_deform(family, spec)
        )


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
        # Any multiple of the true period interpolates consistently: class
        # by class it is the true quasi-polynomial, and what fitting every
        # class on its own gives.
        for family, rho, period in (("B", 2, 4), ("A", 1, 3), ("C", 2, 6)):
            mat = gen_coxeter(family, 2)
            qp = interpolate_quasi(mat, period)
            assert every_class(qp) == interpolate_every_class(mat, period)
            assert every_class(qp) == every_class(chi_coxeter(family, 2)) * (period // rho)
        assert interpolate_quasi(gen_coxeter("A", 2), 3).constituents == (
            Polynomial((0, -1, 1)),
        ) * 2

    def test_wrong_period_raises_not_monic(self):
        with pytest.raises(NotMonic):
            interpolate_quasi(gen_coxeter("B", 2), 1)

    def test_rejects_bad_period(self):
        # No class is sampled; QuasiPolynomial refuses the period.  The
        # point budget is checked only for a period >= 1: at -10**5 the
        # largest sample would hold (-3 * 10**5)^2 points, over the default.
        for bad in (0, -2, -10**5):
            with pytest.raises(ValueError, match="period must be >= 1"):
                interpolate_quasi(gen_coxeter("B", 2), bad)

    @pytest.mark.parametrize("bad", [2.0, 1e10, "3"])
    def test_non_integer_period_is_a_type_error(self, bad):
        # Refused as a type before the budget check reads it: 1e10 would be
        # over the point budget.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            interpolate_quasi(gen_coxeter("B", 2), bad)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            interpolate_quasi(gen_coxeter("B", 2), 2, budget=10)

    def test_over_budget_period_refused_before_any_other_count(self, monkeypatch):
        # The largest modulus, rho * (m + 1) = 104, is checked against the
        # point budget before any count.
        calls = count_calls(monkeypatch, counting, "brute_force_count")
        with pytest.raises(BudgetExceeded) as exc:
            interpolate_quasi(gen_deform_a(DeformSpec(3, (26, 13))), 26, budget=10**6)
        assert calls["brute_force_count"] == 0
        assert str(exc.value).startswith("104^3")

    @given(int_matrices(max_rows=3, max_cols=4, max_abs=3), st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_counts_every_sample_once_in_order_or_none(self, mat, budget):
        # One class per divisor g of rho, in increasing order, each from
        # its smallest sample up; over the budget, none is counted.
        m, rho = mat.rows, lcm_period(mat).value
        seen = []

        def counted(mat, q, budget, _count=brute_force_count):
            seen.append(q)
            return _count(mat, q, budget)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "brute_force_count", counted)
            try:
                interpolate_quasi(mat, rho, budget)
            except BudgetExceeded:
                assert (seen, (rho * (m + 1)) ** m > budget) == ([], True)
                return
        assert seen == [g + rho * j for g in divisors(rho) for j in range(m + 1)]

    def test_counts_two_samples_per_divisor_at_the_listing_limit(self, monkeypatch):
        # rho = 10^6 has 49 divisors, so m = 1 takes 2 * 49 counts; one per
        # class would take 2 * 10^6.
        calls = count_calls(monkeypatch, counting, "brute_force_count")
        spec = DeformSpec(1, (10**6,))
        qp = interpolate_quasi(gen_deform_a(spec), 10**6)
        assert calls["brute_force_count"] == 98
        assert qp == deform_quasi("Adeform", spec)

    @pytest.mark.parametrize(
        "mat, rho, calls",
        [
            (gen_deform_d(DeformSpec(4, (6, 3, 1), 1)), 6, 20),
            (gen_deform_a(DeformSpec(3, (16, 8, 4))), 16, 20),
            (gen_deform_a(DeformSpec(4, (6, 3, 1))), 6, 20),
            (gen_coxeter("B", 5), 2, 12),
            (gen_coxeter("B", 3), 2, 8),
        ],
        ids=["Ddeform-4-631", "Adeform-3-1684", "Adeform-4-631", "B5", "B3"],
    )
    def test_counts_per_divisor_on_the_interpolate_workload(self, monkeypatch, mat, rho, calls):
        # The five interpolations of the benchmark's interpolate workload:
        # d(rho) * (m + 1) counts each, 80 in all, where one fit per class
        # made 30, 64, 30, 12 and 8.
        counted = count_calls(monkeypatch, counting, "brute_force_count")
        interpolate_quasi(mat, rho)
        assert counted["brute_force_count"] == calls == len(divisors(rho)) * (mat.rows + 1)

    @given(int_matrices(max_rows=3, max_cols=4, max_abs=3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    @example(IntMatrix(((3,),)), 1)
    def test_multiple_of_lcm_period_agrees_with_brute_force(self, mat, c):
        # What the docstring promises: for P a multiple of the minimum
        # period the result is exact, here at every q <= 3P(m + 2), past
        # every sample of every class.
        m, period = mat.rows, c * lcm_period(mat).value
        qmax = 3 * period * (m + 2)
        assume(qmax ** (m + 1) <= 4 * 10**6)
        qp = interpolate_quasi(mat, period)
        for q in range(1, qmax + 1):
            assert qp(q) == brute_force_count(mat, q), q

    def test_wrong_period_may_give_a_wrong_result(self):
        # The documented limit: P = 1 is not a multiple of rho = 3 for the
        # one hyperplane 3x = 0, and the fit is q - 1, which is wrong at q = 3.
        mat = IntMatrix(((3,),))
        assert lcm_period(mat).value == 3
        qp = interpolate_quasi(mat, 1)
        assert qp.constituents == (Polynomial((-1, 1)),)
        assert (qp(3), brute_force_count(mat, 3)) == (2, 0)

    def test_lagrange_exact(self):
        poly = _newton_integer_poly([2, 3, 4], [0, 0, 4])
        assert poly == Polynomial((12, -10, 2))

    def test_lagrange_rejects_fractional(self):
        with pytest.raises(NotIntegral):
            _newton_integer_poly([2, 3, 4], [0, 0, 1])

    @given(
        st.lists(st.integers(-60, 60), min_size=1, max_size=7, unique=True),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_newton_matches_lagrange(self, xs, data):
        if data.draw(st.booleans()):
            # Values of an integer polynomial: the interpolant is integral.
            coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), max_size=len(xs)))
            ys = [Polynomial(coeffs)(x) for x in xs]
        else:
            ys = data.draw(st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)))
        try:
            want = _lagrange_integer_poly(xs, ys)
        except NotIntegral:
            with pytest.raises(NotIntegral):
                _newton_integer_poly(xs, ys)
        else:
            assert _newton_integer_poly(xs, ys) == want

    @given(int_matrices(max_rows=3, max_cols=5, max_abs=4))
    @settings(max_examples=40, deadline=None)
    def test_random_arrangement_theorems(self, mat):
        # The oracle fits each residue class on its own, so these are
        # checks of Kamiya-Takemura-Terao's gcd property and of "lcm period
        # = minimum period" (Higashitani-Tran-Yoshinaga); a too-small
        # lcm_period fails the fit or the gcd property, a too-large one the
        # minimality.
        m, rho = mat.rows, lcm_period(mat).value
        assume(((m + 1) * rho) ** m <= 10**5)
        fits = interpolate_every_class(mat, rho)
        assert all(p.is_monic and p.degree == m for p in fits)
        assert gcd_property(fits)
        qp = interpolate_quasi(mat, rho, budget=10**5)
        assert every_class(qp) == fits
        assert verify_minimum_period(qp)

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
            for j in (m + 1, m + 2):
                q = k + rho * j
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
        # Divisors 1, 2, 4: classes 2 and 4 share p2, so period 2 suffices.
        assert not verify_minimum_period(QuasiPolynomial(4, (p1, p2, p2)))
        assert verify_minimum_period(QuasiPolynomial(4, (p1, p2, p1)))
        # Divisors 1, 2, 3, 6: period 3 suffices, not period 2.
        assert not verify_minimum_period(QuasiPolynomial(6, (p1, p1, p2, p2)))

    @given(_periodic_quasi())
    @settings(max_examples=200, deadline=None)
    def test_minimum_period_matches_every_divisor_loop(self, qp):
        assert verify_minimum_period(qp) == _every_divisor_minimum(qp)

    def test_gcd_property_true_for_closed_forms(self):
        # Fitted class by class, C3's counts have the gcd property, and
        # they are the closed form's classes.
        fits = interpolate_every_class(gen_coxeter("C", 3), 4)
        assert gcd_property(fits)
        assert fits == every_class(chi_coxeter("C", 3)) * 2

    def test_gcd_property_false_for_hand_built(self):
        # The oracle can fail, and the type cannot hold such a tuple.
        polys = tuple(Polynomial.from_roots([c]) for c in (1, 2, 3, 4))
        assert not gcd_property(polys)
        with pytest.raises(ValueError, match="need exactly 3 constituents, got 4"):
            QuasiPolynomial(4, polys)

    def test_gcd_property_groups_equal_gcds(self):
        p1 = Polynomial.from_roots([1])
        p2 = Polynomial.from_roots([2])
        p4 = Polynomial.from_roots([3])
        assert gcd_property((p1, p2, p1, p4))
        assert not gcd_property((p1, p2, p4, p4))
        assert every_class(QuasiPolynomial(4, (p1, p2, p4))) == (p1, p2, p1, p4)
