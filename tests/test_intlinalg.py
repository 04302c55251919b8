"""Elementary divisors and lcm periods, checked against first principles.

The independent oracle for smith_divisors is the determinantal-divisor
characterization: the product e_1 ... e_k equals the gcd of all k x k
minors, computed here by literal Laplace expansion over all row and column
subsets.  The oracle for lcm_period is unpruned enumeration of every
nonempty column subset through the public API.
"""

import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charquasi import (
    DeformSpec,
    ElementaryDivisors,
    IndexOutOfRange,
    IntMatrix,
    InvalidParity,
    PeriodResult,
    TooManyColumns,
    column_submatrix,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    known_period,
    lcm_period,
    smith_divisors,
)
from charquasi.intlinalg import _lattice_table, _span

from conftest import EDGE_MATRICES, int_matrices


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * head * _det(minor)
    return total


def _minor_gcd(mat: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    acc = 0
    for rows in combinations(mat.entries, k):
        for cols in combinations(range(mat.cols), k):
            acc = math.gcd(acc, _det([[row[c] for c in cols] for row in rows]))
            if acc == 1:
                return 1
    return acc


def _naive_lcm_period(mat: IntMatrix, cap: int | None = None) -> int:
    acc = 1
    for size in range(1, min(cap or mat.cols, mat.cols) + 1):
        for J in combinations(range(1, mat.cols + 1), size):
            divs = smith_divisors(column_submatrix(mat, J)).divisors
            acc = math.lcm(acc, divs[-1])
    return acc


class TestElementaryDivisors:
    def test_rank(self):
        assert ElementaryDivisors((1, 2, 6)).rank == 3

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            ElementaryDivisors((2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ElementaryDivisors((0, 2))


class TestSmithDivisors:
    def test_identity_like(self):
        assert smith_divisors(gen_coxeter("B", 2)).divisors == (1, 1)

    def test_doubled_identity(self):
        assert smith_divisors(IntMatrix(((2, 0), (0, 2)))).divisors == (2, 2)

    def test_pair_with_determinant_two(self):
        assert smith_divisors(IntMatrix(((1, 1), (-1, 1)))).divisors == (1, 2)

    def test_chain_fix_reorders(self):
        # diag(2, 3) is equivalent to diag(1, 6).
        assert smith_divisors(IntMatrix(((2, 0), (0, 3)))).divisors == (1, 6)

    def test_single_entry(self):
        assert smith_divisors(IntMatrix(((-4,),))).divisors == (4,)

    def test_rank_deficient(self):
        assert smith_divisors(IntMatrix(((2, 4), (1, 2)))).divisors == (1,)

    def test_wide_rectangular(self):
        mat = IntMatrix(((2, 4, 6),))
        assert smith_divisors(mat).divisors == (2,)

    @given(int_matrices())
    def test_chain_and_rank_bounds(self, mat):
        divs = smith_divisors(mat).divisors
        assert 1 <= len(divs) <= min(mat.rows, mat.cols)
        assert all(b % a == 0 for a, b in zip(divs, divs[1:]))

    # Each basis is a Hermite form with a pivot that does not divide its
    # row, so the matrix with these columns needs a round on the columns.
    @pytest.mark.parametrize(
        "basis, want",
        [
            (((2, 1), (0, 2)), (1, 4)),
            (((6, 4), (0, 6)), (2, 18)),
            (((2, 1, 0), (0, 2, 1), (0, 0, 2)), (1, 1, 8)),
        ],
    )
    def test_column_rounds(self, basis, want):
        assert _span(len(basis), basis) == basis
        assert smith_divisors(IntMatrix.from_columns(basis)).divisors == want
        assert smith_divisors(IntMatrix(basis)).divisors == want

    @staticmethod
    def _check_determinantal_divisors(mat):
        divs = smith_divisors(mat).divisors
        partial = 1
        for k in range(1, min(mat.rows, mat.cols) + 1):
            gk = _minor_gcd(mat, k)
            if k <= len(divs):
                partial *= divs[k - 1]
                assert gk == partial
            else:
                assert gk == 0

    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_determinantal_divisor_identity(self, mat):
        self._check_determinantal_divisors(mat)

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_determinantal_divisors(self, mat):
        self._check_determinantal_divisors(mat)

    @given(int_matrices(), st.data())
    def test_column_permutation_invariance(self, mat, data):
        perm = data.draw(st.permutations(range(mat.cols)))
        shuffled = IntMatrix.from_columns([mat.column(j) for j in perm])
        assert smith_divisors(shuffled) == smith_divisors(mat)

    @given(int_matrices(), st.data())
    def test_column_negation_invariance(self, mat, data):
        flips = data.draw(
            st.lists(st.booleans(), min_size=mat.cols, max_size=mat.cols)
        )
        cols = [
            tuple(-v for v in mat.column(j)) if flip else mat.column(j)
            for j, flip in enumerate(flips)
        ]
        assert smith_divisors(IntMatrix.from_columns(cols)) == smith_divisors(mat)

    @given(int_matrices())
    def test_transpose_invariance(self, mat):
        assume(all(any(row) for row in mat.entries))
        transposed = IntMatrix.from_columns(mat.entries)
        assert smith_divisors(transposed) == smith_divisors(mat)


class TestColumnSubmatrix:
    def test_known_selection(self):
        sub = column_submatrix(gen_coxeter("B", 2), {3, 4})
        assert sub.entries == ((1, 1), (-1, 1))

    def test_sorts_increasing(self):
        sub = column_submatrix(gen_coxeter("B", 2), [4, 1])
        assert sub.entries == ((1, 1), (0, 1))

    def test_duplicates_collapse(self):
        sub = column_submatrix(gen_coxeter("B", 2), [2, 2])
        assert sub.entries == ((0,), (1,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            column_submatrix(gen_coxeter("B", 2), [])

    @pytest.mark.parametrize("bad", [0, 5, -1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(IndexOutOfRange):
            column_submatrix(gen_coxeter("B", 2), [bad])


class TestLcmPeriod:
    def test_a3_is_one(self):
        assert lcm_period(gen_coxeter("A", 3)) == PeriodResult(1, True)

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_bcd_are_two(self, family, m):
        assert lcm_period(gen_coxeter(family, m)).value == 2

    def test_a_deform_takes_s1(self):
        mat = gen_deform_a(DeformSpec(2, (4, 2)))
        assert lcm_period(mat) == PeriodResult(4, True)

    def test_d_deform_takes_lcm_with_two(self):
        mat = gen_deform_d(DeformSpec(2, (3,), 0))
        assert lcm_period(mat) == PeriodResult(6, True)

    def test_cap_gives_lower_bound(self):
        # The divisor 2 of B_2 needs the pair {e1-e2, e1+e2}; size-1
        # subsets alone miss it.
        mat = gen_coxeter("B", 2)
        assert lcm_period(mat, max_subset_size=1) == PeriodResult(1, False)
        capped = lcm_period(mat, max_subset_size=2)
        assert capped.value == 2 and not capped.exact

    def test_cap_at_least_n_is_exact(self):
        mat = gen_coxeter("B", 2)
        assert lcm_period(mat, max_subset_size=9) == PeriodResult(2, True)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            lcm_period(gen_coxeter("B", 2), max_subset_size=0)

    def test_too_many_columns(self):
        wide = IntMatrix((tuple([1] * 25),))
        with pytest.raises(TooManyColumns) as exc:
            lcm_period(wide)
        assert "max_subset_size (charquasi period --max-subset-size N" in str(exc.value)
        assert lcm_period(wide, max_subset_size=2) == PeriodResult(1, False)

    @given(int_matrices(max_rows=3, max_cols=5))
    @settings(max_examples=75, deadline=None)
    def test_lattice_table_matches_naive_enumeration(self, mat):
        assert lcm_period(mat).value == _naive_lcm_period(mat)

    @staticmethod
    def _check_every_cap(mat):
        assert lcm_period(mat) == PeriodResult(_naive_lcm_period(mat), True)
        for cap in range(1, mat.cols + 2):
            want = PeriodResult(_naive_lcm_period(mat, cap), cap >= mat.cols)
            assert lcm_period(mat, cap) == want

    @given(int_matrices(max_rows=3, max_cols=6))
    @settings(max_examples=50, deadline=None)
    def test_every_cap_matches_naive_enumeration(self, mat):
        self._check_every_cap(mat)

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_naive_enumeration(self, mat):
        self._check_every_cap(mat)

    def test_one_table_entry_per_lattice(self):
        # B2 spans 7 lattices: 0, four lines, Z^2 and the index-2 lattice
        # of e1 - e2, e1 + e2.  D5 spans 428.
        assert len(_lattice_table(gen_coxeter("B", 2), 4)) == 7
        assert len(_lattice_table(gen_coxeter("D", 5), 20)) == 428

    def test_divides_relation_with_cap(self):
        mat = gen_deform_d(DeformSpec(3, (6, 3), 1))
        exact = lcm_period(mat).value
        for cap in range(1, mat.cols + 1):
            assert exact % lcm_period(mat, cap).value == 0


class TestKnownPeriod:
    def test_a_deform(self):
        assert known_period(DeformSpec(3, (6, 3)), "Adeform") == 6
        assert known_period(DeformSpec(3), "Adeform") == 1

    def test_d_deform(self):
        assert known_period(DeformSpec(2, (2, 1), 1), "Ddeform") == 2
        assert known_period(DeformSpec(2, (3,), 0), "Ddeform") == 6
        assert known_period(DeformSpec(2, (), 0), "Ddeform") == 2

    def test_d_deform_needs_r(self):
        with pytest.raises(InvalidParity):
            known_period(DeformSpec(2, (3,)), "Ddeform")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            known_period(DeformSpec(2, (2,)), "Bdeform")

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2,)),
            DeformSpec(3, (6, 3)),
            DeformSpec(3, (4, 2, 2)),
            DeformSpec(2, ()),
        ],
    )
    def test_a_deform_agrees_with_enumeration(self, spec):
        want = known_period(spec, "Adeform")
        if spec.t == 0 and spec.m == 1:
            return
        assert lcm_period(gen_deform_a(spec)).value == want

    @pytest.mark.parametrize(
        "spec",
        [
            DeformSpec(2, (2, 1), 1),
            DeformSpec(2, (3,), 0),
            DeformSpec(3, (6, 3, 1), 1),
            DeformSpec(3, (4, 2), 2),
            DeformSpec(3, (), 0),
        ],
    )
    def test_d_deform_agrees_with_enumeration(self, spec):
        want = known_period(spec, "Ddeform")
        assert lcm_period(gen_deform_d(spec)).value == want
