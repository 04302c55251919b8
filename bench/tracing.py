"""Per-layer spans of one CLI invocation, and their reduction to layer metrics.

Child side: `python bench/tracing.py SPANS_FILE ARG...` runs
charquasi.cli.main([ARG...]) after wrapping the public functions of each
layer in every module namespace that binds them (cli imports names
directly, so patching only the defining module would miss its calls).
Each call becomes one span (name, start, end, parent, work), kept in memory
and written to SPANS_FILE as JSON at exit.  No file of the package changes.

Parent side: invocation_totals() turns one span list into layer sums
(library_s is the time inside the package: the spans directly under
cli.main) and layer_metrics() turns the sums of one pass, plus the
children's CPU seconds, into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Layer module -> public functions on the CLI's paths; each call becomes a span.
TRACED = {
    "arrangements": ("parse_matrix", "format_matrix", "gen_coxeter", "gen_deform_a", "gen_deform_d"),
    "intlinalg": ("lcm_period", "known_period"),
    "counting": ("brute_force_count", "snf_count", "interpolate_quasi"),
    "closedforms": ("chi_coxeter", "chi_deform_a", "chi_deform_d"),
    "cli": ("main",),
}
NAMESPACES = ("charquasi", *(f"charquasi.{mod}" for mod in TRACED))
CHI = ("closedforms.chi_coxeter", "closedforms.chi_deform_a", "closedforms.chi_deform_d")
TOTALS = (
    "lcm_period_s", "lcm_period_calls", "subsets_bound",
    "snf_first_s", "snf_first_calls", "snf_hot_s", "snf_calls",
    "brute_s", "brute_calls", "brute_points", "interp_self_s", "interp_samples",
    "chi_s", "constituents", "arrangements_self_s", "cli_self_s", "library_s",
)


def _work(name: str, args: tuple, result, seen: set) -> int:
    """Units of work one call did, by layer: subsets, points, tables, constituents."""
    if name == "intlinalg.lcm_period":
        return 2 ** args[0].cols - 1
    if name == "counting.brute_force_count":
        return args[1] ** args[0].rows
    if name == "counting.snf_count":
        # The first call per matrix builds the 2^n subset table.
        first = args[0] not in seen
        seen.add(args[0])
        return int(first)
    if name == "closedforms.chi_coxeter":
        return result.period
    if name in CHI:
        return 1
    return 0


def install(spans: list) -> None:
    """Replace every traced function, in every namespace binding it, by a span wrapper."""
    stack: list[int] = []
    seen: set = set()
    wrappers = {}
    for mod, names in TRACED.items():
        module = importlib.import_module(f"charquasi.{mod}")
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = _wrap(f"{mod}.{fname}", fn, spans, stack, seen)
    for ns in NAMESPACES:
        module = importlib.import_module(ns)
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])


def _wrap(name, fn, spans, stack, seen):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, _work(name, args, result, seen))

    return wrapper


def invocation_totals(spans: list) -> dict[str, float]:
    """Layer sums of one invocation from its spans.

    Self time of a span is its duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    t = dict.fromkeys(TOTALS, 0.0)
    cli_index = {i for i, s in enumerate(spans) if s[0] == "cli.main"}
    for i, (name, start, end, parent, work) in enumerate(spans):
        dur = end - start
        if parent in cli_index:
            t["library_s"] += dur
        if name == "intlinalg.lcm_period":
            t["lcm_period_s"] += dur
            t["lcm_period_calls"] += 1
            t["subsets_bound"] += work
        elif name == "counting.snf_count":
            t["snf_calls"] += 1
            t["snf_first_calls"] += work
            t["snf_first_s" if work else "snf_hot_s"] += dur
        elif name == "counting.brute_force_count":
            t["brute_s"] += dur
            t["brute_calls"] += 1
            t["brute_points"] += work
            if parent >= 0 and spans[parent][0] == "counting.interpolate_quasi":
                t["interp_samples"] += 1
        elif name == "counting.interpolate_quasi":
            t["interp_self_s"] += dur - child[i]
        elif name in CHI:
            t["chi_s"] += dur
            t["constituents"] += work
        elif name.startswith("arrangements."):
            t["arrangements_self_s"] += dur - child[i]
        elif name == "cli.main":
            t["cli_self_s"] += dur - child[i]
    return t


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass from the summed invocation totals."""
    hot_calls = t["snf_calls"] - t["snf_first_calls"]
    return {
        "intlinalg.lcm_period_s": t["lcm_period_s"],
        "intlinalg.lcm_period_calls": t["lcm_period_calls"],
        "intlinalg.subsets_bound": t["subsets_bound"],
        "counting.snf_first_s": t["snf_first_s"],
        "counting.snf_hot_ms": 1000 * t["snf_hot_s"] / hot_calls if hot_calls else 0.0,
        "counting.snf_calls": t["snf_calls"],
        "counting.brute_s": t["brute_s"],
        "counting.brute_calls": t["brute_calls"],
        "counting.brute_points": t["brute_points"],
        "counting.brute_mpts_per_s": t["brute_points"] / t["brute_s"] / 1e6 if t["brute_s"] else 0.0,
        "counting.interpolate_self_s": t["interp_self_s"],
        "counting.interp_samples": t["interp_samples"],
        "closedforms.chi_s": t["chi_s"],
        "closedforms.constituents": t["constituents"],
        "arrangements.self_s": t["arrangements_self_s"],
        "cli.self_s": t["cli_self_s"],
        "cli.cpu_s": t["cpu_s"],
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    spans: list = []
    install(spans)
    from charquasi import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
