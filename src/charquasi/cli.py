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

entrypoint() is the one process entry: the `charquasi` console script and
`python -m charquasi.cli` both run it.  It calls gc.freeze() before main().
Every object alive by then (the interpreter's, site's, argparse's and this
package's) stays alive until exit anyway; frozen, it is walked by no later
collection, neither the run's own full collections nor the several that
interpreter finalization runs.  main() does not freeze, so tests, tracing and
library callers that call it in their own process keep normal collection.
The exit path (atexit handlers, flushes, exit codes) is the normal one.
"""

import argparse
import sys
import time

from .arrangements import (
    COXETER_FAMILIES,
    DEFORM_FAMILIES,
    DeformSpec,
    IntMatrix,
    coxeter_spec,
    format_matrix,
    gen_deform,
    known_period,
    parse_matrix,
)
from .errors import CharQuasiError


def _parse_s(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()
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
        help="number of even entries of s (Ddeform only); worked out from --s, "
        "and checked when given",
    )


def _family_from_args(args: argparse.Namespace) -> tuple[str, str, DeformSpec]:
    """The verify label, deformation family and spec of the --family options."""
    if args.m is None:
        raise ValueError("--family needs --m")
    if args.family in COXETER_FAMILIES:
        if args.s is not None or args.r is not None:
            raise ValueError("--s and --r only apply to deformation families")
        return (f"{args.family} m={args.m}", *coxeter_spec(args.family, args.m))
    s = args.s or ()
    label = f"{args.family} m={args.m} s=({','.join(str(v) for v in s)})"
    if args.family == "Adeform":
        if args.r is not None:
            raise ValueError("--r only applies to Ddeform")
        return label, "Adeform", DeformSpec(args.m, s)
    spec = DeformSpec(args.m, s, args.r)
    return f"{label} r={spec.r}", "Ddeform", spec


def _read_matrix(path: str) -> IntMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read())


def cmd_gen(args: argparse.Namespace) -> int:
    _, family, spec = _family_from_args(args)
    sys.stdout.write(format_matrix(gen_deform(family, spec)))
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

    if args.matrix is not None and args.family is not None:
        raise ValueError("give either a matrix file or --family, not both")
    if args.matrix is not None:
        if args.method == "closed-form":
            raise ValueError("closed-form output needs a built-in --family")
        if (args.m, args.s, args.r) != (None, None, None):
            raise ValueError("--m, --s and --r describe a --family, not a matrix file")
        from .intlinalg import lcm_period

        mat = _read_matrix(args.matrix)
        # A cap of m is at least the rank, so the period is exact at any width.
        qp = interpolate_quasi(mat, lcm_period(mat, mat.rows).value)
    elif args.family is not None:
        _, family, spec = _family_from_args(args)
        if args.method == "closed-form":
            from .closedforms import deform_quasi

            qp = deform_quasi(family, spec)
        else:
            qp = interpolate_quasi(gen_deform(family, spec), known_period(spec, family))
    else:
        raise ValueError("need a matrix file or --family")
    sys.stdout.write(str(qp))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .closedforms import chi_deform
    from .counting import brute_force_count, snf_count

    if args.qmax < 1:
        raise ValueError("--qmax must be >= 1")
    started = time.perf_counter()
    label, family, spec = _family_from_args(args)
    mat = gen_deform(family, spec)
    rho = known_period(spec, family)
    # Only qmax constituents are needed, never the rho-long quasi-polynomial;
    # chi reduces each modulus q to its class itself.  The verdict is 'pass'
    # exactly when the three counts agree in every row.
    rows = [
        {
            "q": q,
            "brute": brute_force_count(mat, q),
            "snf": snf_count(mat, q),
            "closed": chi_deform(family, spec, q)(q),
        }
        for q in range(1, args.qmax + 1)
    ]
    agree = all(row["brute"] == row["snf"] == row["closed"] for row in rows)
    verdict = "pass" if agree else "fail"
    ms = round((time.perf_counter() - started) * 1000)
    if args.json:
        import json

        report = {"spec": label, "rho": rho, "rows": rows, "verdict": verdict, "ms": ms}
        print(json.dumps(report))
    else:
        print(f"spec: {label}")
        print(f"rho = {rho}")
        print(f"{'q':>4} {'brute':>10} {'snf':>10} {'closed':>10}")
        for row in rows:
            print(
                f"{row['q']:>4} {row['brute']:>10} {row['snf']:>10} "
                f"{row['closed']:>10}"
            )
        print(f"verdict: {verdict} ({ms} ms)")
    return 0 if agree else 1


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
        help="cap subset size; below the rank of the matrix the result is a lower bound",
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
    except (CharQuasiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    import gc

    gc.freeze()  # see the module docstring
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
