"""Elementary divisors and lcm periods, checked against first principles.

The independent oracle for smith_divisors is the determinantal-divisor
characterization: the product e_1 ... e_k equals the gcd of all k x k
minors, computed here by literal Laplace expansion over all row and column
subsets.  The oracle for lcm_period is unpruned enumeration of every
nonempty column subset through the public API.  The lattice table is also
compared entry for entry with _lattice_table_ref, built from a plain
Hermite-form routine that reduces every row on every call, and the two
engines are tied together by "lcm period = minimum period": the lcm of the
last divisors over the table's nonzero-count lattices is the lcm period.
Two changes of a matrix that leave its arrangement's count known need no
oracle at all: a column c next to a multiple k*c adds nothing, and a zero
row multiplies every count by q; in both the lcm period stays put.
"""

import math
import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charquasi import (
    DeformSpec,
    ElementaryDivisors,
    IndexOutOfRange,
    IntMatrix,
    PeriodResult,
    TooManyColumns,
    brute_force_count,
    column_submatrix,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    known_period,
    lcm_period,
    smith_divisors,
    snf_count,
)
from charquasi import intlinalg
from charquasi.intlinalg import _chain_fix, _lattice_table, _span

from conftest import EDGE_MATRICES, count_calls, int_matrices, nonzero_column


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


def _hnf_add_ref(basis, vec):
    """Row Hermite form of basis plus vec by Euclid on every pivot, then a full back-reduction."""
    rows = [list(r) for r in basis]
    v = list(vec)
    for p, r in enumerate(rows):
        while v[p]:
            k = r[p] // v[p]
            r, v = v, [a - k * b for a, b in zip(r, v)]
        rows[p] = r if r[p] >= 0 else [-x for x in r]
    for p, r in enumerate(rows):
        if r[p]:
            for above in rows[:p]:
                k = above[p] // r[p]
                for j in range(p, len(r)):
                    above[j] -= k * r[j]
    return tuple(tuple(r) for r in rows)


def _basis_divisors_ref(basis):
    """Elementary divisors of a row Hermite form, by column rounds on the whole basis."""
    m = len(basis)
    while any(r[p] and any(v % r[p] for v in r[p + 1 :]) for p, r in enumerate(basis)):
        basis = reduce(_hnf_add_ref, zip(*basis), ((0,) * m,) * m)
    return tuple(_chain_fix(r[p] for p, r in enumerate(basis) if r[p]))


def _lattice_table_ref(mat):
    table = {((0,) * mat.rows,) * mat.rows: 1}
    for col in mat.columns():
        grown = dict(table)
        for basis, count in table.items():
            if count:
                key = _hnf_add_ref(basis, col)
                grown[key] = grown.get(key, 0) - count
        table = grown
    return tuple((count, _basis_divisors_ref(basis)) for basis, count in table.items() if count)


@st.composite
def lattice_inputs(draw):
    """Matrices with small or huge entries, often of deficient rank."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    bound = draw(st.sampled_from([3, 40, 2**70]))
    entry = st.integers(-bound, bound)
    rank = draw(st.integers(1, m))
    gens = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=rank, max_size=rank))
    cols = []
    for _ in range(n):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        col = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(m)]
        cols.append(col if any(col) else draw(st.lists(entry, min_size=m, max_size=m).filter(any)))
    return IntMatrix.from_columns(cols)


class TestLatticeTableReference:
    @given(lattice_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, mat):
        assert _lattice_table(mat) == _lattice_table_ref(mat)

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_reference(self, mat):
        assert _lattice_table(mat) == _lattice_table_ref(mat)

    def test_deformation_matches_reference(self):
        mat = gen_deform_d(DeformSpec(4, (6, 3, 1), 1))
        assert _lattice_table(mat) == _lattice_table_ref(mat)

    @given(lattice_inputs())
    @settings(max_examples=150, deadline=None)
    def test_nonzero_counts_give_the_lcm_period(self, mat):
        # lcm period = minimum period (Higashitani-Tran-Yoshinaga): every
        # column is nonzero, so the divisors of the lattices that survive
        # inclusion-exclusion already reach the lcm period.
        table = _lattice_table(mat)
        assert math.lcm(*(divs[-1] for _, divs in table if divs)) == lcm_period(mat).value


class TestElementaryDivisors:
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
        cols = mat.columns()
        shuffled = IntMatrix.from_columns([cols[j] for j in perm])
        assert smith_divisors(shuffled) == smith_divisors(mat)

    @given(int_matrices(), st.data())
    def test_column_negation_invariance(self, mat, data):
        flips = data.draw(
            st.lists(st.booleans(), min_size=mat.cols, max_size=mat.cols)
        )
        cols = [
            tuple(-v for v in col) if flip else col
            for col, flip in zip(mat.columns(), flips)
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
        # subsets alone miss it.  A cap at the rank 2 is already exact.
        mat = gen_coxeter("B", 2)
        assert lcm_period(mat, max_subset_size=1) == PeriodResult(1, False)
        assert lcm_period(mat, max_subset_size=2) == PeriodResult(2, True)

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
        assert lcm_period(wide, max_subset_size=2) == PeriodResult(1, True)

    @given(int_matrices(max_rows=3, max_cols=5))
    @settings(max_examples=75, deadline=None)
    def test_matches_naive_enumeration(self, mat):
        assert lcm_period(mat).value == _naive_lcm_period(mat)

    @staticmethod
    def _check_every_cap(mat):
        assert lcm_period(mat) == PeriodResult(_naive_lcm_period(mat), True)
        rank = len(smith_divisors(mat).divisors)
        for cap in range(1, mat.cols + 2):
            want = PeriodResult(_naive_lcm_period(mat, cap), cap >= rank)
            assert lcm_period(mat, cap) == want

    @given(st.one_of(int_matrices(max_rows=3, max_cols=6), lattice_inputs()))
    @settings(max_examples=110, deadline=None)
    def test_every_cap_matches_naive_enumeration(self, mat):
        self._check_every_cap(mat)

    @pytest.mark.parametrize(
        "mat", [m for _, m in EDGE_MATRICES], ids=[i for i, _ in EDGE_MATRICES]
    )
    def test_edge_inputs_match_naive_enumeration(self, mat):
        self._check_every_cap(mat)

    def test_one_table_entry_per_lattice(self):
        # B2 spans 7 lattices, each with a nonzero signed count: 0, four
        # lines, Z^2 and the index-2 lattice of e1 - e2, e1 + e2.  D5 spans
        # 428.  For (1 2) the subsets {1} and {1, 2} both span Z and cancel,
        # leaving 0 and 2Z: q - gcd(2, q) points.
        assert len(_lattice_table(gen_coxeter("B", 2))) == 7
        assert len(_lattice_table(gen_coxeter("D", 5))) == 428
        assert _lattice_table(IntMatrix(((1, 2),))) == ((1, ()), (-1, (2,)))

    def test_builds_no_lattice_table(self):
        # The period reads only independent column sets; the signed table
        # is inclusion-exclusion's alone.
        mat = gen_deform_d(DeformSpec(3, (6, 3), 1))
        _lattice_table.cache_clear()
        lcm_period(mat)
        lcm_period(mat, 2)
        info = _lattice_table.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    def test_divides_relation_with_cap(self):
        mat = gen_deform_d(DeformSpec(3, (6, 3), 1))
        exact = lcm_period(mat).value
        for cap in range(1, mat.cols + 1):
            assert exact % lcm_period(mat, cap).value == 0


class TestMetamorphic:
    @given(
        int_matrices(max_rows=4, max_cols=5, max_abs=4),
        st.data(),
        st.sampled_from([2, 3, -2, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_divisor_column_changes_nothing(self, mat, data, k):
        # x . kc != 0 (mod q) implies x . c != 0, so appending c next to kc
        # keeps every count, and so (lcm period = minimum period) the lcm
        # period, although the subsets with c bring new divisors.
        cols = list(mat.columns())
        j = data.draw(st.integers(0, len(cols) - 1))
        c = cols[j]
        cols[j] = tuple(k * v for v in c)
        base = IntMatrix.from_columns(cols)
        grown = IntMatrix.from_columns([*cols, c])
        assert lcm_period(grown) == lcm_period(base)
        for q in range(1, 16):
            assert snf_count(grown, q) == snf_count(base, q)

    @given(int_matrices(max_rows=3, max_cols=5, max_abs=4))
    @settings(max_examples=40, deadline=None)
    def test_zero_row_multiplies_counts_by_q(self, mat):
        lifted = IntMatrix((*mat.entries, (0,) * mat.cols))
        assert lcm_period(lifted) == lcm_period(mat)
        for q in range(1, 8):
            assert snf_count(lifted, q) == q * snf_count(mat, q)
            assert brute_force_count(lifted, q) == q * brute_force_count(mat, q)


class TestPeriodWork:
    # (_hnf_add, _minors_gcd, _basis_divisors) calls of one lcm_period walk
    # capped at the rank.  A change that moves a count on purpose updates
    # the pin; one that drops the _minors_gcd skip, say, keeps every period
    # right but raises the other two counts.
    @pytest.mark.parametrize(
        "family, m, work",
        [("D", 5, (2436, 661, 11)), ("D", 6, (24067, 4113, 41)), ("B", 5, (5546, 2621, 26))],
    )
    def test_work_counts(self, monkeypatch, family, m, work):
        names = ("_hnf_add", "_minors_gcd", "_basis_divisors")
        calls = count_calls(monkeypatch, intlinalg, *names)
        assert lcm_period(gen_coxeter(family, m), m) == PeriodResult(2, True)
        assert tuple(calls[name] for name in names) == work

    @pytest.mark.parametrize("family, m, work", [("D", 5, (3067, 428)), ("B", 4, (957, 164))])
    def test_table_work_counts(self, monkeypatch, family, m, work):
        # (_hnf_add, _basis_divisors) calls of one lattice-table build: a
        # table that costs more keeps every count right, and no timing here
        # resolves it.
        names = ("_hnf_add", "_basis_divisors")
        calls = count_calls(monkeypatch, intlinalg, *names)
        _lattice_table.cache_clear()
        _lattice_table(gen_coxeter(family, m))
        assert tuple(calls[name] for name in names) == work

    def test_column_round_table_work_counts(self, monkeypatch):
        # The B4 and D5 tables above never run a column round (_span inside
        # _basis_divisors); this seeded 4x13 table runs 512.  Splitting off
        # the unit pivots first keeps every entry of it but saves _hnf_add
        # calls: 4482 without the split.
        rng = random.Random(1)
        mat = IntMatrix.from_columns([nonzero_column(rng, 4, -3, 3) for _ in range(13)])
        names = ("_hnf_add", "_span", "_basis_divisors")
        calls = count_calls(monkeypatch, intlinalg, *names)
        _lattice_table.cache_clear()
        _lattice_table(mat)
        assert tuple(calls[name] for name in names) == (3805, 513, 1056)


class TestKnownPeriod:
    def test_a_deform(self):
        assert known_period(DeformSpec(3, (6, 3)), "Adeform") == 6
        assert known_period(DeformSpec(3), "Adeform") == 1

    def test_d_deform(self):
        assert known_period(DeformSpec(2, (2, 1), 1), "Ddeform") == 2
        assert known_period(DeformSpec(2, (3,), 0), "Ddeform") == 6
        assert known_period(DeformSpec(2, (), 0), "Ddeform") == 2

    def test_d_deform_needs_r(self):
        # r is worked out from s, so a type-D spec needs no explicit r.
        assert known_period(DeformSpec(2, (3,)), "Ddeform") == 6
        assert known_period(DeformSpec(4, (6, 3, 1)), "Ddeform") == 6

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
