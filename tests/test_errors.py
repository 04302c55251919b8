"""The one refusal rule: every refusal the package words itself raises a
CharQuasiError, and every CharQuasiError is a ValueError; a wrong argument
type raises TypeError.

Each row is one refusal site, called with a bad input, with the exact type
and the message the package gives: a plain CharQuasiError for bad input,
and one of the two limit errors for a refusal that a setting lifts.
"""

import ast
import pathlib

import pytest

import charquasi
from charquasi import (
    DeformSpec,
    ElementaryDivisors,
    IntMatrix,
    Polynomial,
    QuasiPolynomial,
    brute_force_count,
    chi_coxeter,
    chi_deform_a,
    chi_deform_d,
    coxeter_spec,
    gen_coxeter,
    interpolate_quasi,
    known_period,
    lcm_period,
    parse_matrix,
    snf_count,
)
from charquasi import cli, errors
from charquasi.errors import BudgetExceeded, CharQuasiError, TooManyColumns
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
    _row("DeformSpec-m", lambda: DeformSpec(0), "dimension m must be >= 1, got 0"),
    # Two faults: m is checked first, so it is the one named.
    _row("DeformSpec-m-before-s", lambda: DeformSpec(0, (0,)),
         "dimension m must be >= 1, got 0"),
    _row("DeformSpec-t", lambda: DeformSpec(1, (2, 1)), "tuple length t = 2 exceeds m = 1"),
    _row("DeformSpec-s", lambda: DeformSpec(2, (0,)), "diagonal entry must be >= 1, got 0"),
    _row("DeformSpec-chain", lambda: DeformSpec(2, (3, 2)),
         "divisibility chain broken: 2 does not divide 3"),
    _row("DeformSpec-r", lambda: DeformSpec(2, (2,), 2),
         "r must be the number of even entries of s, 1; got r = 2"),
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
         "empty arrangement: A_1 has no hyperplanes"),
    _row("known_period-D1", lambda: known_period(DeformSpec(1), "Ddeform"),
         "empty arrangement: D_1 has no hyperplanes"),
    _row("known_period-D-m1", lambda: known_period(DeformSpec(1, (2,)), "Ddeform"),
         "type-D deformation needs m >= 2"),
    _row("brute-q", lambda: brute_force_count(B2, 0), "modulus q must be >= 1, got 0"),
    _row("snf-q", lambda: snf_count(B2, 0), "modulus q must be >= 1, got 0"),
    _row("lcm_period-cap", lambda: lcm_period(B2, 0), "max_subset_size must be >= 1, got 0"),
    _row("QuasiPolynomial-period", lambda: QuasiPolynomial(0, ()),
         "period must be >= 1, got 0"),
    _row("QuasiPolynomial-count", lambda: QuasiPolynomial(2, (Polynomial((0, 1)),)),
         "need exactly 2 constituents, got 1"),
    _row("QuasiPolynomial-degree",
         lambda: QuasiPolynomial(2, (Polynomial((0, 1)), Polynomial((0, 0, 1)))),
         "constituents must share one degree"),
    _row("QuasiPolynomial-monic", lambda: QuasiPolynomial(1, (Polynomial((0, 2)),)),
         "constituents must be monic"),
    _row("residue-below-1", lambda: chi_coxeter("B", 2).constituent(0),
         "residue index must be >= 1, got 0"),
    _row("ElementaryDivisors-positive", lambda: ElementaryDivisors((0,)),
         "elementary divisor must be >= 1, got 0"),
    _row("ElementaryDivisors-chain", lambda: ElementaryDivisors((2, 3)),
         "elementary divisors must form a chain"),
    _row("column_submatrix-empty", lambda: column_submatrix(B2, ()),
         "column index set must be nonempty"),
    _row("column_submatrix-range", lambda: column_submatrix(B2, (5,)),
         "column indices must lie in 1..4, got 5"),
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
         "divided difference 20/3 over q = 4..7 is not an integer"),
    _row("NotMonic", lambda: interpolate_quasi(B2, 1),
         "residue class 1 interpolates to 0, not monic of degree 2"),
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
         "--qmax must be >= 1, got 0"),
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


# Every integer that must be at least 1, by the name its refusal gives it.
POSITIVE = [
    pytest.param(lambda v: brute_force_count(B2, v), "modulus q", id="brute-q"),
    pytest.param(lambda v: snf_count(B2, v), "modulus q", id="snf-q"),
    pytest.param(lambda v: interpolate_quasi(B2, v), "period", id="interpolate-period"),
    pytest.param(lambda v: QuasiPolynomial(v, ()), "period", id="QuasiPolynomial-period"),
    pytest.param(lambda v: chi_coxeter("B", 2).constituent(v), "residue index",
                 id="constituent-k"),
    pytest.param(lambda v: chi_deform_a(DeformSpec(2, (2,)), v), "residue index",
                 id="chi_deform_a-k"),
    pytest.param(lambda v: chi_deform_d(DeformSpec(2, (2,)), v), "residue index",
                 id="chi_deform_d-k"),
    pytest.param(lambda v: lcm_period(B2, v), "max_subset_size", id="lcm_period-cap"),
    pytest.param(lambda v: ElementaryDivisors((1, v)), "elementary divisor",
                 id="ElementaryDivisors"),
    pytest.param(lambda v: DeformSpec(v), "dimension m", id="DeformSpec-m"),
    pytest.param(lambda v: DeformSpec(2, (v,)), "diagonal entry", id="DeformSpec-s"),
    pytest.param(lambda v: _cli("verify", "--family", "B", "--m", "2", "--qmax", str(v)),
                 "--qmax", id="cli-qmax"),
]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("call, name", POSITIVE)
def test_an_integer_below_1_is_refused_naming_the_argument_and_value(call, name, value):
    with pytest.raises(CharQuasiError) as exc:
        call(value)
    assert type(exc.value) is CharQuasiError
    assert str(exc.value) == f"{name} must be >= 1, got {value}"


def test_the_at_least_1_rule_is_worded_once():
    # errors.positive is the one check: no other module words the refusal
    # or keeps a check of its own.
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in pathlib.Path(errors.__file__).parent.glob("*.py")
    }
    assert "errors.py" in sources and len(sources) > 1
    assert [name for name, text in sources.items() if "must be >= 1" in text] == ["errors.py"]
    defined = {
        node.name
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "positive" in defined
    assert "_residue_index" not in defined


# A wrong argument type is not a refusal the package words: operator.index
# raises it, and the package lets it through.
TYPE_ERRORS = [
    pytest.param(lambda: chi_coxeter("B", 2).constituent(1.5), id="residue-not-integer"),
    pytest.param(lambda: brute_force_count(B2, 1.5), id="brute-q-not-integer"),
    pytest.param(lambda: snf_count(B2, 1.5), id="snf-q-not-integer"),
    pytest.param(lambda: lcm_period(B2, 1.5), id="lcm_period-cap-not-integer"),
    pytest.param(lambda: DeformSpec(1.5), id="DeformSpec-m-not-integer"),
    pytest.param(lambda: DeformSpec(2, (1.5,)), id="DeformSpec-s-not-integer"),
    pytest.param(lambda: QuasiPolynomial(1.5, (Polynomial((0, 1)),)),
                 id="QuasiPolynomial-period-not-integer"),
    pytest.param(lambda: ElementaryDivisors((1.5,)), id="ElementaryDivisors-not-integer"),
]


@pytest.mark.parametrize("call", TYPE_ERRORS)
def test_a_wrong_argument_type_is_a_type_error(call):
    with pytest.raises(TypeError) as exc:
        call()
    assert type(exc.value) is TypeError
    assert str(exc.value) == "'float' object cannot be interpreted as an integer"


def test_every_error_class_is_a_value_error():
    # The whole taxonomy: one root under ValueError, and the two limit
    # errors under it.
    classes = {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert {name: cls.__bases__ for name, cls in classes.items()} == {
        "CharQuasiError": (ValueError,),
        "BudgetExceeded": (CharQuasiError,),
        "TooManyColumns": (CharQuasiError,),
    }


FOLDED = (
    "EmptyArrangement",
    "IndexOutOfRange",
    "InvalidChain",
    "InvalidParity",
    "InvalidResidue",
    "NotIntegral",
    "NotMonic",
)


def test_bad_input_has_no_error_class_of_its_own():
    # Bad input raises a plain CharQuasiError, so no other name for it is
    # public or importable.
    assert not set(FOLDED) & set(charquasi.__all__)
    assert not set(FOLDED) & set(dir(charquasi))
    for name in FOLDED:
        assert not hasattr(errors, name)
    with pytest.raises(ImportError):
        from charquasi import InvalidChain  # noqa: F401
