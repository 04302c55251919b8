"""Exact characteristic quasi-polynomials of central integral arrangements.

The public names below load their module on first access (PEP 562), so a
program that uses one layer, such as one CLI command, never runs the others.
"""

import importlib

__version__ = "0.1.0"

# Defining module of every public name.
_EXPORTS = {
    "arrangements": (
        "COXETER_FAMILIES",
        "DEFORM_FAMILIES",
        "DeformSpec",
        "IntMatrix",
        "coxeter_spec",
        "format_matrix",
        "gen_coxeter",
        "gen_deform",
        "gen_deform_a",
        "gen_deform_d",
        "known_period",
        "parse_matrix",
    ),
    "closedforms": (
        "chi_coxeter", "chi_deform", "chi_deform_a", "chi_deform_d", "deform_quasi"
    ),
    "counting": (
        "brute_force_count",
        "interpolate_quasi",
        "snf_count",
        "verify_minimum_period",
    ),
    "errors": ("BudgetExceeded", "CharQuasiError", "TooManyColumns"),
    "intlinalg": (
        "ElementaryDivisors",
        "PeriodResult",
        "column_submatrix",
        "lcm_period",
        "smith_divisors",
    ),
    "polynomials": ("Polynomial", "QuasiPolynomial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
