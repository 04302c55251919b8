"""The one refusal rule: every refusal the package words itself raises a
CharQuasiError, and every CharQuasiError is a ValueError.

Each row is one refusal site, called with a bad input, with the exact type
and the message the package gives.
"""

import pytest

from charquasi import (
    DeformSpec,
    ElementaryDivisors,
    IntMatrix,
    Polynomial,
    QuasiPolynomial,
    brute_force_count,
    chi_coxeter,
    coxeter_spec,
    gen_coxeter,
    interpolate_quasi,
    known_period,
    lcm_period,
    parse_matrix,
    snf_count,
)
from charquasi import cli, errors
from charquasi.errors import (
    BudgetExceeded,
    CharQuasiError,
    EmptyArrangement,
    IndexOutOfRange,
    InvalidChain,
    InvalidParity,
    InvalidResidue,
    NotIntegral,
    NotMonic,
    TooManyColumns,
)
from charquasi.intlinalg import column_submatrix

B2 = gen_coxeter("B", 2)


def _cli(*argv):
    """Run one subcommand's handler, as main does, without main's catch."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def _row(id, call, message, error=CharQuasiError):
    return pytest.param(call, error, message, id=id)


REFUSALS = [
    _row("IntMatrix-empty", lambda: IntMatrix(()),
         "matrix needs at least one row and one column"),
    _row("IntMatrix-ragged", lambda: IntMatrix(((1, 0), (1,))),
         "matrix rows must all have the same length"),
    _row("IntMatrix-zero-column", lambda: IntMatrix(((1, 0), (0, 0))), "column 2 is zero"),
    _row("DeformSpec-m", lambda: DeformSpec(0), "dimension m must be >= 1"),
    _row("DeformSpec-t", lambda: DeformSpec(1, (2, 1)), "tuple length t = 2 exceeds m = 1"),
    _row("DeformSpec-s", lambda: DeformSpec(2, (0,)), "diagonal entries must be positive"),
    _row("DeformSpec-chain", lambda: DeformSpec(2, (3, 2)),
         "divisibility chain broken: 2 does not divide 3", InvalidChain),
    _row("DeformSpec-r", lambda: DeformSpec(2, (2,), 2),
         "r must be the number of even entries of s, 1; got r = 2", InvalidParity),
    _row("parse-empty", lambda: parse_matrix("# nothing\n"), "empty matrix text"),
    _row("parse-header", lambda: parse_matrix("2\n1\n"),
         "header must be two integers: '<rows> <cols>'"),
    _row("parse-size", lambda: parse_matrix("0 1\n"),
         "matrix needs at least one row and one column"),
    _row("parse-rows", lambda: parse_matrix("2 1\n1\n"), "expected 2 data rows, found 1"),
    _row("parse-entry", lambda: parse_matrix("1 2\n1 x\n"), "non-integer entry in row: '1 x'"),
    _row("parse-width", lambda: parse_matrix("1 2\n1\n"), "expected 2 entries per row, found 1"),
    _row("coxeter_spec-family", lambda: coxeter_spec("E", 3),
         "unknown family 'E', expected one of A B C D"),
    _row("known_period-family", lambda: known_period(DeformSpec(2), "Bdeform"),
         "unknown deformation family 'Bdeform'"),
    _row("known_period-A1", lambda: known_period(DeformSpec(1), "Adeform"),
         "empty arrangement: A_1 has no hyperplanes", EmptyArrangement),
    _row("known_period-D1", lambda: known_period(DeformSpec(1), "Ddeform"),
         "empty arrangement: D_1 has no hyperplanes", EmptyArrangement),
    _row("known_period-D-m1", lambda: known_period(DeformSpec(1, (2,)), "Ddeform"),
         "type-D deformation needs m >= 2"),
    _row("brute-q", lambda: brute_force_count(B2, 0), "modulus q must be >= 1"),
    _row("snf-q", lambda: snf_count(B2, 0), "modulus q must be >= 1"),
    _row("lcm_period-cap", lambda: lcm_period(B2, 0), "max_subset_size must be >= 1"),
    _row("QuasiPolynomial-period", lambda: QuasiPolynomial(0, ()), "period must be >= 1"),
    _row("QuasiPolynomial-count", lambda: QuasiPolynomial(2, (Polynomial((0, 1)),)),
         "need exactly 2 constituents, got 1"),
    _row("QuasiPolynomial-degree",
         lambda: QuasiPolynomial(2, (Polynomial((0, 1)), Polynomial((0, 0, 1)))),
         "constituents must share one degree"),
    _row("QuasiPolynomial-monic", lambda: QuasiPolynomial(1, (Polynomial((0, 2)),)),
         "constituents must be monic"),
    _row("residue-below-1", lambda: chi_coxeter("B", 2).constituent(0),
         "residue index must be >= 1, got 0", InvalidResidue),
    _row("residue-not-integer", lambda: chi_coxeter("B", 2).constituent(1.5),
         "residue index must be an integer, got 1.5", InvalidResidue),
    _row("ElementaryDivisors-positive", lambda: ElementaryDivisors((0,)),
         "elementary divisors must be positive"),
    _row("ElementaryDivisors-chain", lambda: ElementaryDivisors((2, 3)),
         "elementary divisors must form a chain"),
    _row("column_submatrix-empty", lambda: column_submatrix(B2, ()),
         "column index set must be nonempty"),
    _row("column_submatrix-range", lambda: column_submatrix(B2, (5,)),
         "column indices must lie in 1..4, got 5", IndexOutOfRange),
    _row("TooManyColumns", lambda: lcm_period(IntMatrix(((1,) * 25,))),
         "too many columns for full enumeration: 25 > 24; the matrix has rank 1, and "
         "any cap N >= 1 gives the exact period: pass max_subset_size (charquasi "
         "period --max-subset-size N on the command line)", TooManyColumns),
    _row("BudgetExceeded", lambda: brute_force_count(B2, 10, 50),
         "10^2 = 100 points exceed the budget of 50; raise it with the budget= "
         "argument of brute_force_count or interpolate_quasi, or count with "
         "snf_count (charquasi count --method snf), which has no point budget",
         BudgetExceeded),
    _row("NotIntegral", lambda: interpolate_quasi(B2, 3),
         "divided difference 20/3 over q = 4..7 is not an integer", NotIntegral),
    _row("NotMonic", lambda: interpolate_quasi(B2, 1),
         "residue class 1 interpolates to 0, not monic of degree 2", NotMonic),
    _row("cli-family-m", lambda: _cli("gen", "--family", "B"), "--family needs --m"),
    _row("cli-s-on-coxeter", lambda: _cli("gen", "--family", "B", "--m", "2", "--s", "2"),
         "--s and --r only apply to deformation families"),
    _row("cli-r-on-Adeform", lambda: _cli("gen", "--family", "Adeform", "--m", "2", "--r", "0"),
         "--r only applies to Ddeform"),
    _row("cli-closed-form-file", lambda: _cli("quasi", "FILE", "--method", "closed-form"),
         "closed-form output needs a built-in --family"),
    _row("cli-file-family-flags",
         lambda: _cli("quasi", "FILE", "--m", "2", "--method", "interpolate"),
         "--m, --s and --r describe a --family, not a matrix file"),
    _row("cli-listing-limit",
         lambda: _cli("quasi", "--family", "Adeform", "--m", "1", "--s", "1000001",
                      "--method", "closed-form"),
         "rho = 1000001 is over the listing limit of 1000000 residue classes; count "
         "single moduli with 'count --q N' or 'verify --qmax N', or single classes "
         "with chi_deform(family, spec, k)"),
    _row("cli-qmax-low", lambda: _cli("verify", "--family", "B", "--m", "2", "--qmax", "0"),
         "--qmax must be >= 1"),
    _row("cli-qmax-high",
         lambda: _cli("verify", "--family", "B", "--m", "1", "--qmax", "1000001"),
         "--qmax 1000001 is over the listing limit of 1000000 rows; count single "
         "moduli with 'count --q N'"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_every_refusal_is_a_charquasi_error_and_a_value_error(call, error, message):
    with pytest.raises(CharQuasiError) as exc:
        call()
    assert type(exc.value) is error
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def test_every_error_class_is_a_value_error():
    # The whole taxonomy: one root under ValueError, and one class that is
    # also an IndexError.
    classes = {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    bases = {name: cls.__bases__ for name, cls in classes.items()}
    assert bases.pop("CharQuasiError") == (ValueError,)
    assert bases.pop("IndexOutOfRange") == (CharQuasiError, IndexError)
    assert set(bases.values()) == {(CharQuasiError,)}
    assert {"InvalidParity", "InvalidResidue"} <= set(bases)
    assert all(issubclass(cls, ValueError) for cls in classes.values())
