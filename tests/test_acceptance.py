"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every comparison is exact integer or coefficient equality; the only
tolerances anywhere are the wall-clock budgets stated per criterion.
Criterion lines print with capture suspended so they stay visible in the
normal pytest output.
"""

import math
import random
import time

import pytest

from charquasi import (
    DeformSpec,
    EmptyArrangement,
    brute_force_count,
    chi_coxeter,
    chi_deform_a,
    chi_deform_d,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    interpolate_quasi,
    known_period,
    lcm_period,
    smith_divisors,
    snf_count,
    verify_minimum_period,
)
from charquasi.closedforms import _even_constituent_d

from conftest import (
    every_class,
    gcd_property,
    interpolate_every_class,
    lemma_union_a_instance,
    lemma_union_d_instance,
    random_matrix,
)
from test_closedforms import overcount_even_constituent_d
from test_intlinalg import _minor_gcd

SEED = 20260815

CHAINS_A = [(1,), (2,), (4, 2), (6, 3), (2, 1)]
CHAINS_D = [(2,), (1,), (2, 1), (2, 2), (4, 2), (6, 3), (3,), (6, 3, 1)]


def criterion(num: int, title: str, budget: float | None = None):
    """Wrap a test so it prints 'ACCEPTANCE <n> (<title>): PASS|FAIL'.

    The wrapper takes the capsys fixture by name (no functools.wraps, so
    pytest inspects the wrapper's own signature).
    """

    def decorate(fn):
        def wrapper(capsys):
            start = time.perf_counter()
            ok = False
            try:
                fn()
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, (
                        f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"
                    )
                ok = True
            finally:
                with capsys.disabled():
                    print(
                        f"ACCEPTANCE {num} ({title}): "
                        f"{'PASS' if ok else 'FAIL'}",
                        flush=True,
                    )
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return decorate


def a_deform_specs() -> list[DeformSpec]:
    """Criterion-2 grid: m in {2,3}, every chain truncation of length <= m."""
    seen = set()
    specs = []
    for m in (2, 3):
        for t in range(m + 1):
            for chain in CHAINS_A:
                if len(chain) < t:
                    continue
                key = (m, chain[:t])
                if key not in seen:
                    seen.add(key)
                    specs.append(DeformSpec(m, chain[:t]))
    return specs


def d_deform_specs() -> list[DeformSpec]:
    """Criterion-3 grid; r is forced to the count of leading even entries."""
    seen = set()
    specs = []
    for m in (2, 3):
        for chain in CHAINS_D:
            for t in range(min(m, len(chain)) + 1):
                s = chain[:t]
                r = 0
                while r < t and s[r] % 2 == 0:
                    r += 1
                key = (m, s, r)
                if key not in seen:
                    seen.add(key)
                    specs.append(DeformSpec(m, s, r))
    return specs


def builtin_registry() -> list[tuple[str, object, int]]:
    """Every built-in spec exercised by the suite, with its known period."""
    entries = []
    matrices = set()

    def add(label, mat, rho):
        if mat not in matrices:
            matrices.add(mat)
            entries.append((label, mat, rho))

    for m in (2, 3, 4):
        add(f"A m={m}", gen_coxeter("A", m), 1)
        for family in "BCD":
            add(f"{family} m={m}", gen_coxeter(family, m), 2)
    for spec in a_deform_specs():
        add(
            f"Adeform m={spec.m} s={spec.s}",
            gen_deform_a(spec),
            known_period(spec, "Adeform"),
        )
    for spec in d_deform_specs():
        add(
            f"Ddeform m={spec.m} s={spec.s} r={spec.r}",
            gen_deform_d(spec),
            known_period(spec, "Ddeform"),
        )
    return entries


@criterion(1, "Coxeter quasi-polynomials reproduced", budget=10.0)
def test_criterion_1_coxeter_reproduction():
    with pytest.raises(EmptyArrangement):
        gen_coxeter("A", 1)
    with pytest.raises(EmptyArrangement):
        chi_coxeter("A", 1)
    cases = [("A", m) for m in (2, 3, 4)]
    cases += [(f, m) for f in "BCD" for m in (2, 3, 4)]
    for family, m in cases:
        mat = gen_coxeter(family, m)
        rho = lcm_period(mat)
        assert rho.exact
        interpolated = interpolate_quasi(mat, rho.value)
        assert interpolated == chi_coxeter(family, m), (family, m)


@criterion(2, "type-A deformation formula vs brute force", budget=30.0)
def test_criterion_2_a_deformation_reproduction():
    checks = 0
    for spec in a_deform_specs():
        mat = gen_deform_a(spec)
        rho = known_period(spec, "Adeform")
        for k in range(1, rho + 1):
            poly = chi_deform_a(spec, k)
            for j in range(4):
                q = k + j * rho
                if q < 2:
                    continue
                assert poly(q) == brute_force_count(mat, q), (spec, k, q)
                checks += 1
    assert checks > 100


@criterion(3, "type-D deformation formula vs brute force", budget=60.0)
def test_criterion_3_d_deformation_reproduction():
    checks = 0
    for spec in d_deform_specs():
        mat = gen_deform_d(spec)
        rho = known_period(spec, "Ddeform")
        for k in range(1, rho + 1):
            poly = chi_deform_d(spec, k)
            for j in range(3):
                q = k + j * rho
                if q == 1:
                    continue
                assert poly(q) == brute_force_count(mat, q), (spec, k, q)
                checks += 1
    assert checks > 100


@criterion(4, "even-case correction sum adjudicated")
def test_criterion_4_erratum_adjudication():
    spec = DeformSpec(2, (2, 1), 1)
    mat = gen_deform_d(spec)
    oracle = brute_force_count(mat, 6)
    assert oracle == 12
    d = [math.gcd(2, v) for v in spec.s]
    implemented = _even_constituent_d(2, 1, 2, d)
    statement_variant = overcount_even_constituent_d(2, 1, 2, d)
    assert chi_deform_d(spec, 2) == implemented
    assert implemented(6) == oracle
    assert statement_variant(6) == 20


@criterion(5, "Coxeter families recovered from the type-D deformation")
def test_criterion_5_family_recovery():
    for m in (2, 3, 4):
        d_plain = DeformSpec(m, (), 0)
        b_like = DeformSpec(m, (1,) * m, 0)
        c_like = DeformSpec(m, (2,) * m, m)
        for k in (1, 2):
            assert chi_deform_d(d_plain, k) == chi_coxeter("D", m).constituent(k)
            assert chi_deform_d(b_like, k) == chi_coxeter("B", m).constituent(k)
            assert chi_deform_d(c_like, k) == chi_coxeter("C", m).constituent(k)


@criterion(6, "lcm periods are the known minimum periods")
def test_criterion_6_period_minimality():
    for label, mat, known in builtin_registry():
        assert mat.cols <= 24, label
        rho = lcm_period(mat)
        assert rho.exact and rho.value == known, (label, rho, known)
        # Every class fitted on its own: a too-small period fails the fit or
        # the gcd property, a too-large one the minimality.
        fits = interpolate_every_class(mat, rho.value)
        assert gcd_property(fits), label
        qp = interpolate_quasi(mat, rho.value)
        assert every_class(qp) == fits, label
        assert verify_minimum_period(qp), label


@criterion(7, "snf_count equals brute force on random matrices", budget=60.0)
def test_criterion_7_method_equivalence():
    rng = random.Random(SEED)
    for _ in range(500):
        mat = random_matrix(rng, max_rows=3, max_cols=6, lo=-3, hi=3)
        for q in range(1, 11):
            assert snf_count(mat, q) == brute_force_count(mat, q), (mat, q)


@criterion(8, "prefix-counting lemmas hold on random instances")
def test_criterion_8_lemma_property_suites():
    rng = random.Random(SEED)
    done = 0
    while done < 1000:
        instance = lemma_union_a_instance(rng)
        if instance is None:
            continue
        measured, predicted = instance
        assert measured == predicted
        done += 1
    done = 0
    while done < 1000:
        instance = lemma_union_d_instance(rng)
        if instance is None:
            continue
        measured, predicted = instance
        assert measured == predicted
        done += 1


@criterion(9, "structural invariants: monic, gcd property, divisor chains")
def test_criterion_9_structural_invariants():
    # The formulas evaluated at every class k = 1..rho, and the Coxeter
    # counts fitted at every class: each on its own, so the gcd property is
    # checked, not assumed.
    for family, specs, chi in (
        ("Adeform", a_deform_specs(), chi_deform_a),
        ("Ddeform", d_deform_specs(), chi_deform_d),
    ):
        for spec in specs:
            rho = known_period(spec, family)
            polys = tuple(chi(spec, k) for k in range(1, rho + 1))
            assert all(p.is_monic and p.degree == spec.m for p in polys), spec
            assert gcd_property(polys), spec
    for family, m in [(f, m) for f in "ABCD" for m in (2, 3, 4)]:
        fits = interpolate_every_class(gen_coxeter(family, m), 2)
        assert all(p.is_monic and p.degree == m for p in fits), (family, m)
        assert gcd_property(fits), (family, m)
        qp = chi_coxeter(family, m)
        assert fits == (qp.constituent(1), qp.constituent(2)), (family, m)

    rng = random.Random(SEED)
    for _ in range(200):
        mat = random_matrix(rng, max_rows=3, max_cols=5, lo=-4, hi=4)
        divs = smith_divisors(mat).divisors
        assert all(b % a == 0 for a, b in zip(divs, divs[1:]))
        partial = 1
        for k, e in enumerate(divs, start=1):
            partial *= e
            assert _minor_gcd(mat, k) == partial, (mat, k)
