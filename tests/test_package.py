"""Package surface: the lazy public namespace and the immutable value types."""

import ast
import copy
import importlib
import itertools
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import charquasi
from charquasi import (
    DeformSpec,
    ElementaryDivisors,
    IntMatrix,
    PeriodResult,
    Polynomial,
    QuasiPolynomial,
    gen_coxeter,
    lcm_period,
    snf_count,
)
from charquasi.intlinalg import _lattice_table

from conftest import child_env

# In a fresh interpreter: layer modules and public names bound by the bare
# package import, then the names still unbound after resolving each once.
_RESOLVE_PROBE = """
import json, sys
import charquasi
layers = [m for m in sys.modules if m.startswith("charquasi.")]
bound = sorted(set(charquasi.__all__) & set(vars(charquasi)))
for name in charquasi.__all__:
    getattr(charquasi, name)
unbound = sorted(set(charquasi.__all__) - set(vars(charquasi)))
print(json.dumps([layers, bound, unbound]))
"""


class TestLazyNamespace:
    def test_every_public_name_resolves_on_first_access(self):
        proc = subprocess.run(
            [sys.executable, "-c", _RESOLVE_PROBE],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], [], []]

    @pytest.mark.parametrize("name", charquasi.__all__)
    def test_name_is_the_defining_module_object(self, name):
        value = getattr(charquasi, name)
        # Constants carry no __module__; they all live in arrangements.
        home = getattr(value, "__module__", "charquasi.arrangements")
        assert home.startswith("charquasi.")
        assert getattr(sys.modules[home], name) is value

    def test_dir_lists_every_name(self):
        assert set(charquasi.__all__) <= set(dir(charquasi))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            charquasi.no_such_name
        assert not hasattr(charquasi, "no_such_name")

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from charquasi import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(charquasi.__all__)


def _traced_names() -> dict[str, tuple[str, ...]]:
    """The TRACED table of bench/tracing.py, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no TRACED table")


def test_benchmark_traced_names_resolve():
    # The tracer looks each name up on the module it lists; moving a
    # function without keeping it bound there breaks bench/run.py --trace 1.
    traced = _traced_names()
    assert traced
    for module, names in traced.items():
        layer = importlib.import_module(f"charquasi.{module}")
        for name in names:
            assert callable(getattr(layer, name, None)), f"{module}.{name}"


_P1 = Polynomial((3, -4, 1))
_P2 = Polynomial((4, -4, 1))

# (class, constructor arguments, repr as the package printed it when the
# types were dataclasses, and PeriodResult when it was a typing.NamedTuple)
VALUES = [
    (
        IntMatrix,
        (((1, 0, 1), (0, 1, -1)),),
        "IntMatrix(entries=((1, 0, 1), (0, 1, -1)))",
    ),
    (DeformSpec, (3, (6, 3), 1), "DeformSpec(m=3, s=(6, 3), r=1)"),
    (ElementaryDivisors, ((1, 2, 6),), "ElementaryDivisors(divisors=(1, 2, 6))"),
    (Polynomial, ((3, -4, 1),), "Polynomial(coeffs=(3, -4, 1))"),
    (
        QuasiPolynomial,
        (2, (_P1, _P2)),
        "QuasiPolynomial(period=2, constituents=(Polynomial(coeffs=(3, -4, 1)), "
        "Polynomial(coeffs=(4, -4, 1))))",
    ),
    (PeriodResult, (2, True), "PeriodResult(value=2, exact=True)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


class TestValueTypes:
    @pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
    def test_equal_values_are_equal_and_hash_equal(self, cls, args, text):
        a, b = cls(*args), cls(*copy.deepcopy(args))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_classes_are_unequal(self):
        values = [cls(*args) for cls, args, _ in VALUES]
        for a, b in itertools.permutations(values, 2):
            assert a != b
        # Same field values, different class.
        assert ElementaryDivisors((1, 2, 6)) != Polynomial((1, 2, 6))
        assert Polynomial((1, 2, 6)) != (1, 2, 6)
        assert Polynomial((1, 2, 6)) != ((1, 2, 6),)

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
    def test_fields_cannot_be_assigned(self, cls, args, text):
        value = cls(*args)
        # A named tuple's fields are read-only descriptors, and it has no slots.
        for name in getattr(cls, "_fields", cls.__slots__):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*args)

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
    def test_repr_keeps_the_dataclass_text(self, cls, args, text):
        assert repr(cls(*args)) == text

    @pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
    def test_pickle_and_copy_round_trip(self, cls, args, text):
        value = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is cls and back == value
        assert copy.deepcopy(value) == value
        assert copy.copy(value) == value

    def test_period_result_is_a_plain_tuple(self):
        # On purpose, unlike the _Value types: it equals and unpacks as the
        # tuple (value, exact).
        assert PeriodResult(2, True) == (2, True)
        assert (2, True) == PeriodResult(2, True)
        assert hash(PeriodResult(2, True)) == hash((2, True))
        value, exact = lcm_period(gen_coxeter("B", 2))
        assert (value, exact) == (2, True)

    def test_equal_matrices_share_one_lattice_table_entry(self):
        entries = ((1, 0, 1, 1), (0, 1, -1, 1))
        first = IntMatrix(entries)
        second = pickle.loads(pickle.dumps(IntMatrix(tuple(map(list, entries)))))
        assert first is not second
        _lattice_table.cache_clear()
        assert snf_count(first, 12) == snf_count(second, 12)
        info = _lattice_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
