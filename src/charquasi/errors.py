"""Exception taxonomy shared across the package.

Every failure mode raised by library code derives from CharQuasiError so a
caller (notably the CLI) can map any library failure to a spec/usage error
without enumerating subclasses.
"""


class CharQuasiError(Exception):
    """Base class for all errors raised by this package."""


class EmptyArrangement(CharQuasiError):
    """The requested family/dimension combination has no hyperplanes."""


class InvalidChain(CharQuasiError):
    """The diagonal entries violate the divisibility chain s_t | ... | s_1."""


class InvalidParity(CharQuasiError):
    """The even-prefix/odd-tail structure of a type-D tuple is violated."""


class IndexOutOfRange(CharQuasiError, IndexError):
    """A column index set refers to columns outside 1..n."""


class TooManyColumns(CharQuasiError):
    """A matrix is wider than the column limit of a generic route.

    lcm_period (without a cap) and snf_count refuse more than
    FULL_ENUMERATION_LIMIT columns by policy, not by cost.  The period's
    cost is its frontier, the distinct lattices of independent column
    sets; snf_count's is its table, the distinct column lattices with a
    nonzero signed count.  Neither grows with 2^n.
    """


class BudgetExceeded(CharQuasiError):
    """Point enumeration would exceed the configured budget.

    The budget= argument of brute_force_count and interpolate_quasi lifts
    it; it is brute force's only limit.  snf_count has no point budget.
    """


class NotIntegral(CharQuasiError):
    """Interpolation produced a non-integer coefficient."""


class NotMonic(CharQuasiError):
    """Interpolation produced a constituent that is not monic of full degree."""


class InvalidResidue(CharQuasiError):
    """A residue-class index is not a positive integer."""
