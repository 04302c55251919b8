"""The package's refusals: one class for bad input, two for limits.

Every refusal the package words itself raises CharQuasiError, and every
CharQuasiError is a ValueError, while a wrong argument type raises
TypeError.  A refusal of bad input (a broken chain, an empty arrangement,
an integer below 1, a period that interpolates to no quasi-polynomial) is a
plain CharQuasiError: its message says what is wrong, and no setting makes
the same call succeed.  Every integer that must be at least 1 (a modulus, a
period, a residue index, a dimension, a cap, a diagonal entry or an
elementary divisor) is checked by positive(), which names the argument and
the value.  The two subclasses are the limit errors, the refusals that a
setting lifts, so they are the ones a caller can catch and retry:
TooManyColumns (max_subset_size=) and BudgetExceeded (budget=).
"""

import operator


class CharQuasiError(ValueError):
    """Base class for all errors raised by this package."""


class TooManyColumns(CharQuasiError):
    """A matrix is wider than lcm_period accepts without a cap.

    The one column limit of the package: lcm_period without
    max_subset_size refuses more than FULL_ENUMERATION_LIMIT columns, by
    policy and not by cost.  A cap at or above the rank walks the same
    frontier (the distinct lattices of independent column sets) and is
    exact.  The refusal stays because bench/selftest.py pins it as its
    refused call, until a lattice budget replaces it.
    """


class BudgetExceeded(CharQuasiError):
    """Point enumeration would exceed the configured budget.

    The budget= argument of brute_force_count and interpolate_quasi lifts
    it; it is brute force's only limit.  snf_count has no point budget.
    interpolate_quasi and the verify command check their largest modulus
    against it before any count.
    """


def positive(value: int, name: str) -> int:
    """value as an int of at least 1: TypeError unless an integer, CharQuasiError below 1."""
    value = operator.index(value)
    if value < 1:
        raise CharQuasiError(f"{name} must be >= 1, got {value}")
    return value
