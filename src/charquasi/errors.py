"""Exception taxonomy shared across the package.

Every refusal the package words itself raises CharQuasiError or a subclass,
and every CharQuasiError is a ValueError (IndexOutOfRange is an IndexError
too), while a wrong argument type raises TypeError.
"""


class CharQuasiError(ValueError):
    """Base class for all errors raised by this package."""


class EmptyArrangement(CharQuasiError):
    """The requested family/dimension combination has no hyperplanes."""


class InvalidChain(CharQuasiError):
    """The diagonal entries violate the divisibility chain s_t | ... | s_1."""


class InvalidParity(CharQuasiError):
    """An explicit r is not the number of even entries of s.

    The divisibility chain makes the even entries of s its leading ones, so
    DeformSpec works r out from s; a given r is only checked against it,
    which also refuses an r outside 0..t.
    """


class IndexOutOfRange(CharQuasiError, IndexError):
    """A column index set refers to columns outside 1..n."""


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


class NotIntegral(CharQuasiError):
    """Interpolation produced a non-integer coefficient."""


class NotMonic(CharQuasiError):
    """Interpolation produced a constituent that is not monic of full degree."""


class InvalidResidue(CharQuasiError):
    """A residue-class index is not a positive integer."""
