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
the layers it runs (intlinalg, counting, closedforms) in its own handler,
and only on the branch that runs them.

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
from .errors import CharQuasiError, positive

# The longest listing quasi or verify writes, checked before any count.  It
# bounds time and output size: at rho = 10**6 the closed form for m = 1..3
# takes about 0.3-0.4 s and writes 16-34 MB of text, and interpolating m = 1
# makes 2 * 49 counts, one pair per divisor of rho, in about 0.4 s.  verify
# writes one row per modulus.
LISTING_LIMIT = 10**6


def _parse_s(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--s expects comma-separated integers, got {text!r}"
        ) from None


def _add_family_options(sp: argparse.ArgumentParser, source=None) -> None:
    """Add the family options; --family is required unless it joins source,
    quasi's required matrix-or-family group."""
    (sp if source is None else source).add_argument(
        "--family",
        choices=COXETER_FAMILIES + DEFORM_FAMILIES,
        required=source is None,
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
        raise CharQuasiError("--family needs --m")
    if args.family in COXETER_FAMILIES:
        if args.s is not None or args.r is not None:
            raise CharQuasiError("--s and --r only apply to deformation families")
        return (f"{args.family} m={args.m}", *coxeter_spec(args.family, args.m))
    s = args.s or ()
    label = f"{args.family} m={args.m} s=({','.join(str(v) for v in s)})"
    if args.family == "Adeform":
        if args.r is not None:
            raise CharQuasiError("--r only applies to Ddeform")
        return label, "Adeform", DeformSpec(args.m, s)
    spec = DeformSpec(args.m, s, args.r)
    return f"{label} r={spec.r}", "Ddeform", spec


def _read_matrix(path: str) -> IntMatrix:
    with open(path, encoding="utf-8") as fh:
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
    if args.matrix is not None:
        if args.method == "closed-form":
            raise CharQuasiError("closed-form output needs a built-in --family")
        if (args.m, args.s, args.r) != (None, None, None):
            raise CharQuasiError("--m, --s and --r describe a --family, not a matrix file")
        from .intlinalg import lcm_period

        mat = _read_matrix(args.matrix)
        # A cap of m is at least the rank, so the period is exact at any width.
        rho = lcm_period(mat, mat.rows).value
    else:
        _, family, spec = _family_from_args(args)
        rho = known_period(spec, family)
    if rho > LISTING_LIMIT:
        raise CharQuasiError(
            f"rho = {rho} is over the listing limit of {LISTING_LIMIT} residue "
            "classes; count single moduli with 'count --q N' or 'verify --qmax N', "
            "or single classes with chi_deform(family, spec, k)"
        )
    if args.method == "closed-form":
        from .closedforms import deform_quasi

        qp = deform_quasi(family, spec)
    else:
        from .counting import interpolate_quasi

        qp = interpolate_quasi(mat if args.matrix else gen_deform(family, spec), rho)
    sys.stdout.writelines(qp._listing())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .closedforms import chi_deform
    from .counting import brute_force_count, check_point_budget, snf_count

    positive(args.qmax, "--qmax")
    if args.qmax > LISTING_LIMIT:
        raise CharQuasiError(
            f"--qmax {args.qmax} is over the listing limit of {LISTING_LIMIT} rows; "
            "count single moduli with 'count --q N'"
        )
    started = time.perf_counter()
    label, family, spec = _family_from_args(args)
    mat = gen_deform(family, spec)
    rho = known_period(spec, family)
    check_point_budget(args.qmax, mat.rows)
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
    _add_family_options(p_gen)
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

    families = ",".join(COXETER_FAMILIES + DEFORM_FAMILIES)
    p_quasi = sub.add_parser(
        "quasi",
        help="full characteristic quasi-polynomial",
        # argparse draws a group that mixes a positional and an option as two
        # optional items, so the usage states that one source is required.
        usage=f"%(prog)s [-h] (matrix | --family {{{families}}}) [--m M] "
        "[--s LIST] [--r R] --method {interpolate,closed-form}",
    )
    source = p_quasi.add_mutually_exclusive_group(required=True)
    source.add_argument("matrix", nargs="?", help="matrix file (alternative to --family)")
    _add_family_options(p_quasi, source)
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
    _add_family_options(p_verify)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    import gc

    gc.freeze()  # see the module docstring
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
