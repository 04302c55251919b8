"""Shared test helpers: matrix generators and lemma-instance builders.

The two counting lemmas exercised here are statements about subsets of Z_q,
independent of any arrangement code, so the instance builders below work
from first principles: draw a divisibility chain, a residue class and a
prefix x_1, ..., x_{h-1} satisfying the hypotheses, then measure the union

    {x in Z_q : s_h x = 0 (mod q)}  union  prefix part

literally with Python sets.  Builders return None when a random draw cannot
satisfy the hypotheses (small q); callers redraw.
"""

from __future__ import annotations

import math
import os
import random
import warnings
from collections import Counter
from pathlib import Path

from hypothesis import strategies as st

import charquasi
from charquasi import DeformSpec, IntMatrix

# When a @given test fails, hypothesis's pytest plugin imports this module
# (and libcst) to suggest a patch.  Under filterwarnings = ["error"] a
# DeprecationWarning raised by that import ends the run in INTERNALERROR,
# without a FAILED line and before the later tests run; importing it here
# once, with the warning ignored, leaves the plugin nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass


def child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH finds the charquasi imported here first."""
    env = dict(os.environ)
    src = str(Path(charquasi.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def count_calls(monkeypatch, module, *names: str) -> Counter:
    """Wrap each module.name so that its calls, recursive ones too, are counted.

    Work counts on fixed inputs are deterministic, so a pin on them catches
    a change that costs work but keeps every answer right, which timing
    cannot resolve.
    """
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _name=name, _func=getattr(module, name)):
            calls[_name] += 1
            return _func(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def nonzero_column(rng: random.Random, m: int, lo: int, hi: int) -> list[int]:
    while True:
        col = [rng.randint(lo, hi) for _ in range(m)]
        if any(col):
            return col


def random_matrix(
    rng: random.Random,
    max_rows: int = 3,
    max_cols: int = 6,
    lo: int = -3,
    hi: int = 3,
) -> IntMatrix:
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    return IntMatrix.from_columns(
        [nonzero_column(rng, m, lo, hi) for _ in range(n)]
    )


@st.composite
def int_matrices(draw, max_rows: int = 3, max_cols: int = 5, max_abs: int = 3):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    column = st.lists(
        st.integers(-max_abs, max_abs), min_size=m, max_size=m
    ).filter(any)
    return IntMatrix.from_columns(draw(st.lists(column, min_size=n, max_size=n)))


# Inputs at the edges of the subset and lattice code, each (id, matrix).
EDGE_MATRICES = [
    ("m1", IntMatrix(((2, -3, 6, 4),))),
    ("repeated", IntMatrix.from_columns([(1, 0), (1, 1), (1, 0), (1, -1), (1, 1)])),
    ("parallel", IntMatrix.from_columns([(1, 2), (-1, -2), (2, 4), (0, 1)])),
    # Its lattice Z(0, 1) is first met as {(0,-3), (0,-1)}, later alone as
    # {(0,-1)}; a cap of 2 must still extend it by (-2,-1).
    (
        "parallel_late",
        IntMatrix.from_columns([(0, -3), (-3, -1), (0, -1), (0, 3), (-2, -1)]),
    ),
    (
        "non_primitive",
        IntMatrix.from_columns([(2, 0, 0), (0, 4, 2), (6, 6, 0), (3, 0, 3)]),
    ),
    (
        "rank_deficient",
        IntMatrix.from_columns([(1, 1, 0), (0, 1, 1), (1, 2, 1), (2, 0, -2)]),
    ),
    ("rank_one", IntMatrix.from_columns([(1, -2, 3), (-2, 4, -6), (3, -6, 9)])),
    (
        "huge",
        IntMatrix.from_columns(
            [(2**63, 1), (1, 2**64 + 3), (2**63 + 1, -1), (3 * 2**70, 6)]
        ),
    ),
]


def random_divisor(rng: random.Random, value: int) -> int:
    return rng.choice([d for d in range(1, value + 1) if value % d == 0])


def random_chain_a(rng: random.Random, max_t: int = 4) -> tuple[int, ...]:
    """Random s_t | ... | s_1, built upward from a random tail."""
    t = rng.randint(1, max_t)
    chain = [rng.randint(1, 4)]
    for _ in range(t - 1):
        chain.append(chain[-1] * rng.randint(1, 3))
    return tuple(reversed(chain))


def random_chain_d(rng: random.Random, max_t: int = 4) -> tuple[tuple[int, ...], int]:
    """Random chain with the parity split: even prefix, odd tail; returns (s, r).

    Built smallest-entry first: odd entries stay odd under odd factors, the
    first even entry introduces the factor 2, later ones take any factor.
    """
    t = rng.randint(1, max_t)
    r = rng.randint(0, t)
    chain: list[int] = []
    for _ in range(t - r):
        if chain:
            chain.append(chain[-1] * rng.choice([1, 3]))
        else:
            chain.append(rng.choice([1, 3, 5]))
    for i in range(r):
        if not chain:
            chain.append(rng.choice([2, 4, 6]))
        elif i == 0:
            chain.append(chain[-1] * rng.choice([2, 4]))
        else:
            chain.append(chain[-1] * rng.randint(1, 3))
    return tuple(reversed(chain)), r


@st.composite
def deform_cases(draw):
    """A random (family, DeformSpec) of either deformation family, m <= 4, t <= 3."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        s = random_chain_a(rng, max_t=3)
        return "Adeform", DeformSpec(rng.randint(len(s), 4), s)
    s, r = random_chain_d(rng, max_t=3)
    return "Ddeform", DeformSpec(rng.randint(max(len(s), 2), 4), s, r)


def lemma_union_a_instance(rng: random.Random) -> tuple[int, int] | None:
    """One randomized check of |{x : s_h x = 0} U {x_1..x_{h-1}}| = d_h + h - 1.

    Returns (measured, predicted), or None when the hypotheses cannot be
    met for the drawn (q, h).
    """
    s = random_chain_a(rng)
    rho = s[0]
    k = random_divisor(rng, rho)
    q = k + rho * rng.randint(0, 4)
    h = rng.randint(1, len(s))
    chosen: list[int] = []
    for i in range(h - 1):
        pool = [
            x
            for x in range(q)
            if (s[i] * x) % q != 0 and x not in chosen
        ]
        if not pool:
            return None
        chosen.append(rng.choice(pool))
    zero_set = {x for x in range(q) if (s[h - 1] * x) % q == 0}
    measured = len(zero_set | set(chosen))
    predicted = math.gcd(k, s[h - 1]) + h - 1
    assert math.gcd(k, s[h - 1]) == math.gcd(q, s[h - 1])
    return measured, predicted


def lemma_union_d_instance(rng: random.Random) -> tuple[int, int] | None:
    """One randomized check of |{x : s_h x = 0} U {+-x_i}| = d_h + 2h - 2.

    Hypotheses: s_i x_i != 0, x_i != +-x_j for i < j, and for even residue
    classes x_i != q/2 at the odd-entry indices i >= r + 1.
    """
    s, r = random_chain_d(rng)
    rho = math.lcm(s[0], 2)
    k = random_divisor(rng, rho)
    q = k + rho * rng.randint(0, 4)
    h = rng.randint(1, len(s))
    forbidden: set[int] = set()
    chosen: list[int] = []
    for i in range(h - 1):
        pool = [
            x
            for x in range(q)
            if (s[i] * x) % q != 0 and x not in forbidden
        ]
        if k % 2 == 0 and i >= r:
            pool = [x for x in pool if 2 * x != q]
        if not pool:
            return None
        x = rng.choice(pool)
        chosen.append(x)
        forbidden.add(x)
        forbidden.add((q - x) % q)
    zero_set = {x for x in range(q) if (s[h - 1] * x) % q == 0}
    plus_minus = set(chosen) | {(q - x) % q for x in chosen}
    measured = len(zero_set | plus_minus)
    predicted = math.gcd(k, s[h - 1]) + 2 * h - 2
    return measured, predicted
