"""Command-line interface.

Subcommands:

    gen     print the normal matrix of a built-in family as text
    period  lcm period of a matrix file (optionally capped subset size)
    count   points off the hyperplanes for one modulus (brute or snf)
    quasi   full quasi-polynomial, interpolated or in closed form
    verify  cross-check brute, snf and closed-form counts row by row

Exit codes: 0 success, 1 verification failure (verify only), 2 usage or
spec error.  All library errors are reported as 'error: <message>' on
stderr with exit code 2.

Start-up loads only argparse, errors and arrangements; each command imports
the layers it runs (intlinalg, counting, closedforms) in its own handler.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .arrangements import (
    COXETER_FAMILIES,
    DeformSpec,
    IntMatrix,
    format_matrix,
    gen_coxeter,
    gen_deform_a,
    gen_deform_d,
    parse_matrix,
)
from .errors import CharQuasiError

DEFORM_FAMILIES = ("Adeform", "Ddeform")


class RunReport:
    """Cross-check record printed by the verify subcommand.

    Each row holds the counts of one modulus q under every method run;
    the verdict is 'pass' exactly when all counts agree in every row.
    """

    def __init__(self, spec: str, rho: int) -> None:
        self.spec = spec
        self.rho = rho
        self.rows: list[dict[str, int]] = []
        self.ms = 0

    @property
    def verdict(self) -> str:
        for row in self.rows:
            vals = {v for key, v in row.items() if key != "q"}
            if len(vals) > 1:
                return "fail"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "rho": self.rho,
            "rows": self.rows,
            "verdict": self.verdict,
            "ms": self.ms,
        }


def _parse_s(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--s expects comma-separated integers, got {text!r}"
        ) from None


def _add_family_options(sp: argparse.ArgumentParser, required: bool) -> None:
    sp.add_argument(
        "--family",
        choices=COXETER_FAMILIES + DEFORM_FAMILIES,
        required=required,
        help="built-in family (A, B, C, D, Adeform, Ddeform)",
    )
    sp.add_argument("--m", type=int, help="ambient dimension")
    sp.add_argument(
        "--s",
        type=_parse_s,
        default=None,
        metavar="LIST",
        help="comma-separated diagonal entries s_1,...,s_t (deformations only)",
    )
    sp.add_argument(
        "--r",
        type=int,
        default=None,
        help="number of leading even entries of s (Ddeform only, default 0)",
    )


class FamilySpec:
    """One built-in arrangement selected on the command line.

    r is None for every family but Ddeform.
    """

    def __init__(
        self, family: str, m: int, s: tuple[int, ...] = (), r: int | None = None
    ) -> None:
        self.family = family
        self.m = m
        self.s = s
        self.r = r

    def describe(self) -> str:
        text = f"{self.family} m={self.m}"
        if self.family in DEFORM_FAMILIES:
            text += f" s=({','.join(str(v) for v in self.s)})"
        if self.family == "Ddeform":
            text += f" r={self.r}"
        return text


def _family_from_args(args: argparse.Namespace) -> FamilySpec:
    if args.m is None:
        raise ValueError("--family needs --m")
    if args.family in COXETER_FAMILIES:
        if args.s is not None or args.r is not None:
            raise ValueError("--s and --r only apply to deformation families")
        return FamilySpec(args.family, args.m)
    s = args.s or ()
    if args.family == "Adeform":
        # The parity split is meaningless for type A; it is ignored.
        return FamilySpec("Adeform", args.m, tuple(s))
    r = 0 if args.r is None else args.r
    return FamilySpec("Ddeform", args.m, tuple(s), r)


def _build_matrix(fs: FamilySpec) -> IntMatrix:
    if fs.family in COXETER_FAMILIES:
        return gen_coxeter(fs.family, fs.m)
    gen = gen_deform_a if fs.family == "Adeform" else gen_deform_d
    return gen(DeformSpec(fs.m, fs.s, fs.r))


def _family_period(fs: FamilySpec) -> int:
    if fs.family in COXETER_FAMILIES:
        from .closedforms import chi_coxeter

        return chi_coxeter(fs.family, fs.m).period
    from .intlinalg import known_period

    return known_period(DeformSpec(fs.m, fs.s, fs.r), fs.family)


def _deform_chi(fs: FamilySpec):
    """Spec and constituent function chi(spec, k) of a deformation family.

    chi reduces k to gcd(k, rho) itself, so k may be any modulus q.
    """
    from .closedforms import chi_deform_a, chi_deform_d

    chi = chi_deform_a if fs.family == "Adeform" else chi_deform_d
    return DeformSpec(fs.m, fs.s, fs.r), chi


def _family_count(fs: FamilySpec):
    """Closed-form count q -> |M(q)| of a family, one constituent per call."""
    if fs.family in COXETER_FAMILIES:
        from .closedforms import chi_coxeter

        return chi_coxeter(fs.family, fs.m)
    spec, chi = _deform_chi(fs)
    return lambda q: chi(spec, q)(q)


def _family_quasi(fs: FamilySpec):
    """The whole closed-form quasi-polynomial of a family, rho constituents."""
    if fs.family in COXETER_FAMILIES:
        from .closedforms import chi_coxeter

        return chi_coxeter(fs.family, fs.m)
    from .counting import QuasiPolynomial

    rho = _family_period(fs)
    spec, chi = _deform_chi(fs)
    # A constituent depends on k only through gcd(k, rho) (chi reduces k to
    # it), so evaluate once per divisor of rho and share the result.
    by_gcd = {g: chi(spec, g) for g in range(1, rho + 1) if rho % g == 0}
    return QuasiPolynomial(
        rho, tuple(by_gcd[math.gcd(k, rho)] for k in range(1, rho + 1))
    )


def _read_matrix(path: str) -> IntMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read())


def cmd_gen(args: argparse.Namespace) -> int:
    mat = _build_matrix(_family_from_args(args))
    sys.stdout.write(format_matrix(mat))
    return 0


def cmd_period(args: argparse.Namespace) -> int:
    from .intlinalg import lcm_period

    mat = _read_matrix(args.matrix)
    res = lcm_period(mat, args.max_subset_size)
    marker = "" if res.exact else " lower-bound"
    print(f"rho = {res.value}{marker}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from .counting import brute_force_count, snf_count

    mat = _read_matrix(args.matrix)
    if args.method == "brute":
        print(brute_force_count(mat, args.q))
    else:
        print(snf_count(mat, args.q))
    return 0


def cmd_quasi(args: argparse.Namespace) -> int:
    from .counting import interpolate_quasi
    from .intlinalg import lcm_period

    if args.matrix is not None and args.family is not None:
        raise ValueError("give either a matrix file or --family, not both")
    if args.matrix is not None:
        if args.method == "closed-form":
            raise ValueError("closed-form output needs a built-in --family")
        mat = _read_matrix(args.matrix)
        qp = interpolate_quasi(mat, lcm_period(mat).value)
    elif args.family is not None:
        fs = _family_from_args(args)
        if args.method == "closed-form":
            qp = _family_quasi(fs)
        else:
            qp = interpolate_quasi(_build_matrix(fs), _family_period(fs))
    else:
        raise ValueError("need a matrix file or --family")
    # Closed forms repeat few distinct constituents; format each one once.
    text = {poly: str(poly) for poly in set(qp.constituents)}
    lines = [f"period {qp.period}"]
    lines += (f"k={k}: {text[p]}" for k, p in enumerate(qp.constituents, 1))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .counting import brute_force_count, snf_count

    if args.qmax < 1:
        raise ValueError("--qmax must be >= 1")
    started = time.perf_counter()
    fs = _family_from_args(args)
    mat = _build_matrix(fs)
    # Only qmax constituents are needed, never the rho-long quasi-polynomial.
    closed = _family_count(fs)
    report = RunReport(spec=fs.describe(), rho=_family_period(fs))
    for q in range(1, args.qmax + 1):
        report.rows.append(
            {
                "q": q,
                "brute": brute_force_count(mat, q),
                "snf": snf_count(mat, q),
                "closed": closed(q),
            }
        )
    report.ms = round((time.perf_counter() - started) * 1000)
    if args.json:
        import json

        print(json.dumps(report.to_dict()))
    else:
        print(f"spec: {report.spec}")
        print(f"rho = {report.rho}")
        print(f"{'q':>4} {'brute':>10} {'snf':>10} {'closed':>10}")
        for row in report.rows:
            print(
                f"{row['q']:>4} {row['brute']:>10} {row['snf']:>10} "
                f"{row['closed']:>10}"
            )
        print(f"verdict: {report.verdict} ({report.ms} ms)")
    return 0 if report.verdict == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charquasi",
        description=(
            "Exact characteristic quasi-polynomials of central integral "
            "hyperplane arrangements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="print a built-in normal matrix")
    _add_family_options(p_gen, required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_period = sub.add_parser("period", help="lcm period of a matrix file")
    p_period.add_argument("matrix", help="matrix file in the shared text format")
    p_period.add_argument(
        "--max-subset-size",
        type=int,
        default=None,
        help="cap subset enumeration; result becomes a lower bound",
    )
    p_period.set_defaults(func=cmd_period)

    p_count = sub.add_parser("count", help="count points off the hyperplanes")
    p_count.add_argument("matrix", help="matrix file in the shared text format")
    p_count.add_argument("--q", type=int, required=True, help="modulus q >= 1")
    p_count.add_argument(
        "--method", choices=("brute", "snf"), default="brute", help="counter"
    )
    p_count.set_defaults(func=cmd_count)

    p_quasi = sub.add_parser("quasi", help="full characteristic quasi-polynomial")
    p_quasi.add_argument(
        "matrix", nargs="?", default=None, help="matrix file (alternative to --family)"
    )
    _add_family_options(p_quasi, required=False)
    p_quasi.add_argument(
        "--method",
        choices=("interpolate", "closed-form"),
        required=True,
        help="interpolate from counts, or evaluate the closed form",
    )
    p_quasi.set_defaults(func=cmd_quasi)

    p_verify = sub.add_parser(
        "verify", help="cross-check brute, snf and closed-form counts"
    )
    _add_family_options(p_verify, required=True)
    p_verify.add_argument(
        "--qmax", type=int, default=10, help="check all moduli 1..qmax (default 10)"
    )
    p_verify.add_argument(
        "--json", action="store_true", help="emit the report as one JSON object"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CharQuasiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
