"""Integer normal matrices for the built-in arrangement families.

An arrangement is stored as an m x n integer matrix S whose column j is the
normal vector of the hyperplane {x : x . s_j = 0}; counting later reads the
columns modulo q.  The families are the diagonal deformations A_m(s) and
D_m(s): the columns s_1 e_1, ..., s_t e_t in the orthonormal basis, then
e_i - e_j (and for type D also e_i + e_j) for 1 <= i < j <= m, subject to
the divisibility chain s_t | s_{t-1} | ... | s_1.  The chain puts the even
entries first, so s fixes type D's parity split: s_1, ..., s_r even and
s_{r+1}, ..., s_t odd, where r is the number of even entries.

The four reflection families are deformations too, and coxeter_spec is the
one place that says which:

    A_m = A_m()                   B_m = D_m(1, ..., 1)      (r = 0)
    D_m = D_m()                   C_m = D_m(2, ..., 2)      (r = m)

with B_1 = A_1(1) and C_1 = A_1(2), since D-type pairs need m >= 2.

known_period is the one place that decides whether a (family, spec) pair
is an arrangement at all; gen_deform and closedforms.chi_deform are the
one place each where the family name picks a generator or a formula.

Column order is canonical: diagonal columns first in index order, then for
each pair i < j in lexicographic order the column e_i - e_j followed, where
the family has it, by e_i + e_j.  Counting results never depend on column
order; fixing one keeps text output byte-stable.

The module also owns the shared plain-text matrix format:

    line 1:        "<m> <n>"
    lines 2..m+1:  n space-separated integers (one matrix row each)

Blank lines and lines starting with '#' are ignored when parsing.

_Value, the base of the package's immutable value types, lives here because
every other layer already imports this module.
"""

import math
import operator
from collections.abc import Iterable, Sequence

from .errors import EmptyArrangement, InvalidChain, InvalidParity

COXETER_FAMILIES = ("A", "B", "C", "D")
DEFORM_FAMILIES = ("Adeform", "Ddeform")


class _Value:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__, in the order of its
    constructor's parameters, and sets each once in __init__ through
    object.__setattr__.  Values of the same class compare and hash by their
    fields; assigning or deleting a field raises AttributeError.  Pickling
    and copying call the constructor again, so a copy is validated too.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # Reads the fields in C (one field gives the bare value, more give a
        # tuple): eq and hash run on every dict or set use of a value.
        cls._key = staticmethod(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class IntMatrix(_Value):
    """Immutable integer matrix, row-major; column j is one hyperplane normal.

    Invariants enforced at construction: at least one row and one column,
    rectangular shape, integer entries, and no zero column (a zero normal
    would describe the degenerate hyperplane 0 = 0).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(operator.index(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must all have the same length")
        for j in range(width):
            if all(row[j] == 0 for row in rows):
                raise ValueError(f"column {j + 1} is zero")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        """Matrix with the given columns; ragged columns raise ValueError."""
        return cls(tuple(zip(*cols, strict=True)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.entries))


class DeformSpec(_Value):
    """Deformation data: ambient dimension m, diagonal tuple s, even-prefix r.

    The tuple s = (s_1, ..., s_t) must satisfy t <= m, s_i >= 1 and the
    divisibility chain s_t | ... | s_1.  r is the number of even entries of
    s, worked out from s; the chain makes them the leading ones, which is
    the parity split that type D reads.  An explicit r is only checked:
    ValueError unless 0 <= r <= t, InvalidParity unless it equals the count.
    """

    __slots__ = ("m", "s", "r")

    def __init__(
        self, m: int, s: Iterable[int] = (), r: int | None = None
    ) -> None:
        m = operator.index(m)
        s = tuple(operator.index(v) for v in s)
        if m < 1:
            raise ValueError("dimension m must be >= 1")
        if len(s) > m:
            raise ValueError(f"tuple length t = {len(s)} exceeds m = {m}")
        if any(v < 1 for v in s):
            raise ValueError("diagonal entries must be positive")
        for a, b in zip(s, s[1:]):
            if a % b:
                raise InvalidChain(
                    f"divisibility chain broken: {b} does not divide {a}"
                )
        even = sum(v % 2 == 0 for v in s)
        if r is not None:
            r = operator.index(r)
            if r < 0 or r > len(s):
                raise ValueError(f"need 0 <= r <= t, got r = {r}")
            if r != even:
                raise InvalidParity(
                    f"r must be the number of even entries of s, {even}; got r = {r}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", even)

    @property
    def t(self) -> int:
        return len(self.s)


def _deform_matrix(spec: DeformSpec, with_plus: bool) -> IntMatrix:
    """Columns s_i e_i, then e_i - e_j (and e_i + e_j when with_plus), i < j."""
    m = spec.m
    cols = []
    for i, v in enumerate(spec.s):
        col = [0] * m
        col[i] = v
        cols.append(col)
    for i in range(m):
        for j in range(i + 1, m):
            for sign in (-1, 1) if with_plus else (-1,):
                col = [0] * m
                col[i], col[j] = 1, sign
                cols.append(col)
    return IntMatrix.from_columns(cols)


def coxeter_spec(family: str, m: int) -> tuple[str, DeformSpec]:
    """The reflection arrangement of a family as (deformation family, spec).

    Only the family name is checked here.  DeformSpec refuses m < 1, and
    known_period refuses A_1 and D_1, which have no hyperplanes, when the
    pair is generated or evaluated.
    """
    if family not in COXETER_FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of A B C D")
    if family in ("A", "D"):
        return f"{family}deform", DeformSpec(m)
    # B adds the columns e_i (all odd), C the columns 2 e_i (all even);
    # B_1 and C_1 are A_1(v), since D-type pairs need m >= 2.
    v = 1 if family == "B" else 2
    return "Adeform" if m == 1 else "Ddeform", DeformSpec(m, (v,) * m)


def known_period(spec: DeformSpec, family: str) -> int:
    """Minimum period of a deformation family, by formula.

    Adeform: s_1 for t >= 1, else 1.  Ddeform: lcm(s_1, 2) for t >= 1,
    else 2.  This is the one check that (family, spec) names an
    arrangement, and every generator and formula of a family runs it:
    ValueError for an unknown family, EmptyArrangement for A_1 and D_1
    (m = 1, t = 0: no hyperplanes), and ValueError for type D with m = 1
    and t >= 1, whose e_i +- e_j part is empty although its diagonal part
    is not.
    """
    if family not in DEFORM_FAMILIES:
        raise ValueError(f"unknown deformation family {family!r}")
    if spec.m == 1 and not spec.t:
        raise EmptyArrangement(f"empty arrangement: {family[0]}_1 has no hyperplanes")
    if family == "Adeform":
        return spec.s[0] if spec.t else 1
    if spec.m < 2:
        raise ValueError("type-D deformation needs m >= 2")
    return math.lcm(spec.s[0], 2) if spec.t else 2


def gen_coxeter(family: str, m: int) -> IntMatrix:
    """Normal matrix of the reflection arrangement of the given family.

    Raises EmptyArrangement when the combination has no hyperplanes
    (A with m = 1, D with m = 1).
    """
    return gen_deform(*coxeter_spec(family, m))


def gen_deform(family: str, spec: DeformSpec) -> IntMatrix:
    """Normal matrix of a deformation family.

    The one place a family name picks its generator; an unknown name fails
    in known_period as it does everywhere.
    """
    known_period(spec, family)
    return gen_deform_a(spec) if family == "Adeform" else gen_deform_d(spec)


def gen_deform_a(spec: DeformSpec) -> IntMatrix:
    """Normal matrix of A_m(s): columns s_i e_i, then the A_m pairs.

    The parity field r is ignored.  With t = 0 this is exactly
    gen_coxeter("A", m).
    """
    known_period(spec, "Adeform")
    return _deform_matrix(spec, with_plus=False)


def gen_deform_d(spec: DeformSpec) -> IntMatrix:
    """Normal matrix of D_m(s): columns s_i e_i, then the D_m pairs."""
    known_period(spec, "Ddeform")
    return _deform_matrix(spec, with_plus=True)


def format_matrix(mat: IntMatrix) -> str:
    """Render a matrix in the shared plain-text format (trailing newline)."""
    lines = [f"{mat.rows} {mat.cols}"]
    for row in mat.entries:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    """Parse the shared plain-text format; inverse of format_matrix.

    Raises ValueError for malformed input (bad header, wrong row count or
    width, non-integer tokens, zero columns).
    """
    lines = [
        line
        for line in (raw.strip() for raw in text.splitlines())
        if line and not line.startswith("#")
    ]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be two integers: '<rows> <cols>'")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("header must be two integers: '<rows> <cols>'") from None
    if m < 1 or n < 1:
        raise ValueError("matrix needs at least one row and one column")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} data rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            vals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"non-integer entry in row: {line!r}") from None
        if len(vals) != n:
            raise ValueError(f"expected {n} entries per row, found {len(vals)}")
        rows.append(tuple(vals))
    return IntMatrix(tuple(rows))
