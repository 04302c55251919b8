"""Construction, validation and text round-trips of the normal matrices."""

import random

import pytest
from hypothesis import given

from charquasi import (
    DeformSpec,
    EmptyArrangement,
    IntMatrix,
    InvalidChain,
    InvalidParity,
    format_matrix,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    parse_matrix,
)

from conftest import int_matrices, random_chain_d


class TestIntMatrix:
    def test_shape_and_columns(self):
        mat = IntMatrix(((1, 0, 2), (0, 1, -1)))
        assert (mat.rows, mat.cols) == (2, 3)
        assert mat.columns()[2] == (2, -1)
        assert mat.columns() == ((1, 0), (0, 1), (2, -1))

    def test_from_columns_round_trip(self):
        cols = [(1, 0), (0, 1), (1, -1)]
        assert IntMatrix.from_columns(cols).columns() == tuple(cols)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix(())
        with pytest.raises(ValueError):
            IntMatrix(((),))

    def test_from_columns_rejects_empty(self):
        # The constructor's own check refuses no columns and empty columns.
        for cols in ([], [()]):
            with pytest.raises(ValueError, match="at least one row and one column"):
                IntMatrix.from_columns(cols)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    def test_from_columns_rejects_ragged(self):
        # A plain zip would stop at the shortest column and return ((1, 3),).
        for cols in ([(1, 2), (3,)], [(3,), (1, 2)]):
            with pytest.raises(ValueError):
                IntMatrix.from_columns(cols)

    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 0), (1, 0)))

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.5, 1), (0, 1)))

    def test_hashable(self):
        a = IntMatrix(((1, 0), (0, 1)))
        b = IntMatrix(((1, 0), (0, 1)))
        assert a == b and hash(a) == hash(b)


class TestDeformSpec:
    def test_valid_chain(self):
        spec = DeformSpec(3, (6, 3, 1))
        assert spec.t == 3 and spec.r == 1

    def test_chain_violation(self):
        with pytest.raises(InvalidChain):
            DeformSpec(3, (3, 2))

    def test_t_greater_than_m(self):
        with pytest.raises(ValueError):
            DeformSpec(1, (2, 1))

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            DeformSpec(2, (2, 0))

    def test_parity_split_accepted(self):
        spec = DeformSpec(3, (6, 3, 1), 1)
        assert spec.r == 1

    def test_parity_even_prefix_violation(self):
        with pytest.raises(InvalidParity):
            DeformSpec(2, (3, 1), 1)

    def test_parity_odd_tail_violation(self):
        with pytest.raises(InvalidParity):
            DeformSpec(2, (4, 2), 1)

    def test_r_out_of_range(self):
        # The one r check: r > t is never the count of even entries.
        # Like every refusal of the package, it is a ValueError.
        with pytest.raises(InvalidParity) as exc:
            DeformSpec(2, (2,), 2)
        assert issubclass(InvalidParity, ValueError)
        assert str(exc.value) == (
            "r must be the number of even entries of s, 1; got r = 2"
        )

    def test_r_is_the_number_of_even_entries(self):
        assert DeformSpec(4, (6, 3, 1)).r == 1
        assert DeformSpec(3).r == 0
        assert DeformSpec(3, (12, 6, 3)).r == 2
        assert DeformSpec(2, (4, 2)).r == 2

    def test_wrong_r_names_r_and_the_count(self):
        with pytest.raises(InvalidParity) as exc:
            DeformSpec(4, (6, 3, 1), 2)
        assert str(exc.value) == (
            "r must be the number of even entries of s, 1; got r = 2"
        )

    def test_random_chains_keep_their_split(self):
        # random_chain_d builds s from its r; the spec recounts the same r.
        rng = random.Random(17)
        for _ in range(200):
            s, r = random_chain_d(rng)
            assert DeformSpec(len(s), s).r == r
            assert DeformSpec(len(s), s, r) == DeformSpec(len(s), s)


class TestGenCoxeter:
    def test_b2_matches_known_layout(self):
        assert gen_coxeter("B", 2).entries == ((1, 0, 1, 1), (0, 1, -1, 1))

    def test_c2_doubles_diagonal(self):
        assert gen_coxeter("C", 2).entries == ((2, 0, 1, 1), (0, 2, -1, 1))

    def test_a3_column_count(self):
        mat = gen_coxeter("A", 3)
        assert (mat.rows, mat.cols) == (3, 3)
        assert mat.columns() == ((1, -1, 0), (1, 0, -1), (0, 1, -1))

    def test_d3_has_no_diagonal_part(self):
        mat = gen_coxeter("D", 3)
        assert mat.cols == 6
        assert all(sum(v != 0 for v in col) == 2 for col in mat.columns())

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_column_counts(self, m):
        pairs = m * (m - 1) // 2
        assert gen_coxeter("A", m).cols == pairs
        assert gen_coxeter("B", m).cols == m * m
        assert gen_coxeter("C", m).cols == m * m
        assert gen_coxeter("D", m).cols == m * m - m

    def test_a1_is_empty(self):
        with pytest.raises(EmptyArrangement):
            gen_coxeter("A", 1)

    def test_d1_is_empty(self):
        with pytest.raises(EmptyArrangement):
            gen_coxeter("D", 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_coxeter("E", 3)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            gen_coxeter("B", 0)


class TestGenDeform:
    def test_a_deform_prepends_diagonal(self):
        mat = gen_deform_a(DeformSpec(2, (2,)))
        assert mat.entries == ((2, 1), (0, -1))

    def test_a_deform_t0_equals_coxeter(self):
        assert gen_deform_a(DeformSpec(3)) == gen_coxeter("A", 3)

    def test_a_deform_empty_for_m1_t0(self):
        with pytest.raises(EmptyArrangement):
            gen_deform_a(DeformSpec(1))

    def test_a_deform_m1_t1_allowed(self):
        assert gen_deform_a(DeformSpec(1, (3,))).entries == ((3,),)

    def test_d_deform_layout(self):
        mat = gen_deform_d(DeformSpec(2, (2, 1), 1))
        assert mat.entries == ((2, 0, 1, 1), (0, 1, -1, 1))

    def test_d_deform_needs_r(self):
        # Type D needs the parity split r, and DeformSpec works it out from s.
        spec = DeformSpec(2, (2, 1))
        assert spec.r == 1 and spec == DeformSpec(2, (2, 1), 1)
        assert gen_deform_d(spec).entries == ((2, 0, 1, 1), (0, 1, -1, 1))

    def test_d_deform_needs_m2(self):
        with pytest.raises(ValueError, match="needs m >= 2"):
            gen_deform_d(DeformSpec(1, (2,), 1))

    def test_d_deform_t0_equals_coxeter(self):
        assert gen_deform_d(DeformSpec(3, (), 0)) == gen_coxeter("D", 3)

    def test_b_recovery_as_multiset(self):
        # D_m(1, ..., 1) has the same columns as B_m, differently ordered.
        ones = gen_deform_d(DeformSpec(3, (1, 1, 1), 0))
        assert sorted(ones.columns()) == sorted(gen_coxeter("B", 3).columns())

    def test_c_recovery_as_multiset(self):
        twos = gen_deform_d(DeformSpec(3, (2, 2, 2), 3))
        assert sorted(twos.columns()) == sorted(gen_coxeter("C", 3).columns())


class TestMatrixText:
    def test_format_known(self):
        assert format_matrix(gen_coxeter("B", 2)) == "2 4\n1 0 1 1\n0 1 -1 1\n"

    def test_parse_skips_comments_and_blanks(self):
        text = "# normals\n\n2 2\n1 0\n# middle\n0 1\n"
        assert parse_matrix(text) == IntMatrix(((1, 0), (0, 1)))

    @given(int_matrices())
    def test_round_trip(self, mat):
        assert parse_matrix(format_matrix(mat)) == mat

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix("2\n1 0\n0 1\n")

    def test_parse_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            parse_matrix("3 2\n1 0\n0 1\n")

    def test_parse_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 0 0\n0 1\n")

    def test_parse_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2\n1 x\n")

    def test_parse_rejects_zero_column(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 0\n1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix text"),
            ("# only a comment\n\n", "empty matrix text"),
            ("a b\n1 0\n", "header must be two integers"),
            ("2\n1 0\n0 1\n", "header must be two integers"),
            ("2 2 2\n1 0\n0 1\n", "header must be two integers"),
            ("0 2\n", "at least one row and one column"),
        ],
    )
    def test_parse_refusal_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_matrix(text)
