"""Command-line front end: pdrank <subcommand>.

Subcommands
    dim            exact dimension plus every bound for one polynomial
    bounds         the fast bounds only (no exact rank)
    trace          trace statistics, optional explicit-matrix cross-check
    reduce         graph/complex construction reports
    verify         exhaustive small-graph identity verification
    sym            symmetric-polynomial gap series
    random-corpus  deterministic random polynomial corpus

Reports go to stdout as human text or JSON (--format json).  JSON output
is schema-stable: rationals are "p/q" strings, decimal approximations use
12 significant digits, keys are sorted, and a fixed --seed reproduces the
output byte for byte.  Stage wall-times are available with --timing and
deliberately excluded otherwise (they would break reproducibility).

Exit codes: 0 success, 2 input error, 3 resource cap exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from decimal import Decimal, localcontext
from fractions import Fraction

from . import bounds as bounds_mod
from . import exact, reductions, symmetric, trace
from .corpus import random_polys
from .errors import InvariantViolation, ParseError, ResourceLimitError
from .polyio import (
    SparsePoly,
    parse_complex,
    parse_graph,
    parse_poly,
    poly_from_json_dict,
    poly_to_json_dict,
    to_scaled,
)

CONFIG_ENV = "PDRANK_CONFIG"
MAX_VERTEX_TRIALS = 10_000  # at most 0.3 ms each on 1000 terms


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def frac_dec(value: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _knob(default: int, commands: str):
    """An Options field, read by the handlers of the named subcommands."""
    return field(default=default, metadata={"commands": commands.split()})


@dataclass
class Options:
    """Resolved knobs: CLI flag > config file > default.

    Each field is a flag on the subcommands its metadata names and a
    ``PDRANK_CONFIG`` key, both its name with dashes for underscores.  A
    config value is applied and checked only on those subcommands; the
    others keep the default.
    """

    seed: int = _knob(0, "dim bounds trace random-corpus")
    max_rows: int = _knob(exact.DEFAULT_MAX_ROWS, "dim bounds trace reduce")
    max_cols: int = _knob(exact.DEFAULT_MAX_COLS, "dim bounds trace reduce")
    elimination_budget: int = _knob(exact.DEFAULT_ELIMINATION_BUDGET, "dim trace reduce")
    budget: int = _knob(trace.DEFAULT_TRIPLE_BUDGET, "dim bounds trace")
    vertex_trials: int = _knob(bounds_mod.DEFAULT_VERTEX_TRIALS, "dim bounds")
    threads: int = _knob(1, "verify")

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "Options":
        config = load_config()
        opts = cls()
        for knob in fields(cls):
            if args.subcommand not in knob.metadata["commands"]:
                continue
            flag = getattr(args, knob.name)
            if flag is not None:
                setattr(opts, knob.name, flag)
            elif knob.name in config:
                setattr(opts, knob.name, config[knob.name])
        if opts.vertex_trials < 0:
            raise ValueError("vertex-trials must be nonnegative")
        if opts.vertex_trials > MAX_VERTEX_TRIALS:
            raise ValueError(f"vertex-trials must be at most {MAX_VERTEX_TRIALS}")
        return opts


def load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    attrs = {knob.name.replace("_", "-"): knob.name for knob in fields(Options)}
    out = {}
    for key, value in raw.items():
        if key not in attrs:
            raise ValueError(f"unknown config key {key!r} in {path}")
        out[attrs[key]] = int(value)
    return out


def read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_poly(path: str) -> SparsePoly:
    text = read_text(path)
    if text.lstrip().startswith("{"):
        return poly_from_json_dict(json.loads(text))
    return parse_poly(text)


def input_digest(f: SparsePoly) -> dict:
    return {
        "vars": len(f.vars),
        "terms": len(f.terms),
        "degree": None if f.is_zero else f.degree,
        "multilinear": f.is_multilinear,
        "homogeneous": f.is_homogeneous,
    }


def emit(payload: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            sys.stdout.write(f"{pad}{key}:\n")
            _emit_text(value, indent + 1)
        elif isinstance(value, list):
            sys.stdout.write(f"{pad}{key}: [{len(value)} entries]\n")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + 1)
                    sys.stdout.write("\n")
                else:
                    sys.stdout.write(f"{pad}  {item}\n")
        else:
            sys.stdout.write(f"{pad}{key}: {value}\n")


# ---------------------------------------------------------------------------
# dim / bounds
# ---------------------------------------------------------------------------


def trace_section(f: SparsePoly, k: int, opts: Options):
    """The trace part of a dim --k, bounds or trace report.

    Returns the scaled copy of f, which the later stages reuse, its trace
    statistics, the scaled-basis L and the report entries.
    """
    scaled = to_scaled(f)
    stats = trace.trace_stats(scaled, k, budget=opts.budget)
    l_scaled = trace.closed_form_L(scaled, k)
    entries = {
        "trace": {
            "k": stats.k,
            "monomial_count": stats.monomial_count,
            "tr_b": frac_str(stats.tr_b),
            "tr_b2": frac_str(stats.tr_b2),
            "proxy": frac_str(stats.proxy),
            "vacuous": stats.vacuous,
        },
        "L_ordinary_coefficients": frac_str(trace.closed_form_L(f, k)),
    }
    return scaled, stats, l_scaled, entries


def parse_order_flag(args: argparse.Namespace, nvars: int):
    """The lex orders to try: the default family, or one permutation given
    as --order perm=2,1,3."""
    if args.order is None:
        return bounds_mod.default_order_family(nvars)
    if not args.order.startswith("perm="):
        raise ValueError("--order expects perm=<comma-separated 1-based indices>")
    perm = tuple(int(p) - 1 for p in args.order[len("perm=") :].split(","))
    if sorted(perm) != list(range(nvars)):
        raise ValueError("--order permutation must mention every variable once")
    directions = [args.order_dir] if args.order_dir else ["min", "max"]
    return [bounds_mod.MonomialOrderSpec(perm, d) for d in directions]


def build_bound_report(
    f: SparsePoly,
    k: int,
    args: argparse.Namespace,
    opts: Options,
    with_exact: bool,
) -> dict:
    timings: dict[str, float] = {}
    if f.is_zero:
        return {
            "input": input_digest(f),
            "k": k,
            "exact_dim": {"value": 0, "status": "zero-poly"},
            "bounds": None,
            "trace": None,
            "provenance": {"exact_dim": "zero polynomial spans nothing"},
            "seed": opts.seed,
        }

    t0 = time.monotonic()
    scaled, stats, l_scaled, trace_entries = trace_section(f, k, opts)
    timings["trace"] = time.monotonic() - t0

    t0 = time.monotonic()
    orders = parse_order_flag(args, len(f.vars))
    extremal = bounds_mod.lower_bound_extremal(
        f, k, orders=orders, vertex_trials=opts.vertex_trials, rng_seed=opts.seed
    )
    # One order-k matrix serves the linearity bound and the exact rank.
    matrix = exact.build_matrix(
        scaled, exact.OrderSpec.exact(k), max_rows=opts.max_rows, max_cols=opts.max_cols
    )
    upper = bounds_mod.upper_bound_linearity(f, k, matrix=matrix)
    timings["bounds"] = time.monotonic() - t0

    exact_entry: dict = {"value": None, "status": "not-requested"}
    if with_exact:
        t0 = time.monotonic()
        try:
            value = exact.rank_exact(matrix, budget=opts.elimination_budget)
            exact_entry = {"value": value, "status": "computed"}
        except ResourceLimitError as err:
            exact_entry = {"value": None, "status": f"skipped:caps:{err.what}"}
        timings["exact"] = time.monotonic() - t0

    report = {
        "input": input_digest(f),
        "k": k,
        "exact_dim": exact_entry,
        "bounds": {
            "extremal_lower": extremal,
            "L_lower": frac_str(l_scaled),
            "proxy_lower": frac_str(stats.proxy),
            "linearity_upper": upper,
        },
        **trace_entries,
        "provenance": {
            "extremal_lower": (
                f"max single-monomial profile over {len(orders)} lex orders "
                f"plus {opts.vertex_trials} certified vertex trials (seed {opts.seed})"
            ),
            "L_lower": "closed-form trace bound, scaled-basis coefficients",
            "proxy_lower": "Tr(B)^2/Tr(B^2) via combinatorial triple counting",
            "linearity_upper": "min(per-term profile sum, distinct rows, distinct cols)",
            "exact_dim": "fraction-free elimination rank of the derivative matrix",
            "coefficients": "matrix entries use the scaled monomial basis",
        },
        "seed": opts.seed,
    }
    if args.timing:
        report["timings_seconds"] = {k2: round(v, 6) for k2, v in timings.items()}

    if exact_entry["status"] == "computed":
        value = exact_entry["value"]
        checks = [
            extremal <= value,
            l_scaled <= value,
            stats.proxy <= value,
            value <= upper,
        ]
        if not all(checks):
            raise InvariantViolation(
                f"bound sandwich violated for k={k}: "
                f"extremal={extremal} L={l_scaled} proxy={stats.proxy} "
                f"exact={value} upper={upper}"
            )
    return report


def cmd_dim(args: argparse.Namespace) -> int:
    mode = args.mode
    if mode == "k" and args.k is None:
        raise ValueError("dim requires --k (or --mode star|plus)")
    opts = Options.resolve(args)
    f = load_poly(args.file)
    if mode == "k":
        report = build_bound_report(f, args.k, args, opts, with_exact=True)
        report["command"] = "dim"
        emit(report, args)
        return 0
    # star / plus: exact value only
    spec = exact.OrderSpec.all_orders() if mode == "star" else exact.OrderSpec.interior()
    value = exact.dim_partials(
        f,
        spec,
        max_rows=opts.max_rows,
        max_cols=opts.max_cols,
        budget=opts.elimination_budget,
    )
    report = {
        "command": "dim",
        "input": input_digest(f),
        "mode": mode,
        "exact_dim": {"value": value, "status": "zero-poly" if f.is_zero else "computed"},
        "provenance": {"exact_dim": "fraction-free elimination rank"},
    }
    if mode == "star":
        report["note"] = (
            "all-orders span includes order 0 (the polynomial itself) and the "
            "top order (constants)"
        )
    emit(report, args)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    f = load_poly(args.file)
    report = build_bound_report(f, args.k, args, opts, with_exact=False)
    report["command"] = "bounds"
    emit(report, args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    f = load_poly(args.file)
    if f.is_zero:
        raise ParseError("trace statistics are undefined for the zero polynomial")
    k = args.k
    scaled, stats, l_scaled, trace_entries = trace_section(f, k, opts)
    report: dict = {
        "command": "trace",
        "input": input_digest(f),
        "k": k,
        **trace_entries,
        "L_lower": frac_str(l_scaled),
        "seed": opts.seed,
    }
    if args.oracle:
        oracle = trace.explicit_B_oracle(
            scaled,
            k,
            max_rows=opts.max_rows,
            max_cols=opts.max_cols,
            budget=opts.elimination_budget,
        )
        match = (
            oracle.stats.tr_b == stats.tr_b and oracle.stats.tr_b2 == stats.tr_b2
        )
        report["oracle"] = {
            "tr_b": frac_str(oracle.stats.tr_b),
            "tr_b2": frac_str(oracle.stats.tr_b2),
            "rank_b": oracle.rank_b,
            "matches_closed_form": match,
        }
        if not match:
            raise InvariantViolation(
                f"trace oracle mismatch at k={k}: closed form "
                f"({frac_str(stats.tr_b)}, {frac_str(stats.tr_b2)}) vs oracle "
                f"({frac_str(oracle.stats.tr_b)}, {frac_str(oracle.stats.tr_b2)})"
            )
    if args.samples:
        support = [t.exps for t in f.terms]
        mean = trace.semirandom_estimate(support, k, args.samples, opts.seed)
        expectation = trace.semirandom_expectation(support, k)
        report["semirandom"] = {
            "samples": args.samples,
            "seed": opts.seed,
            "sample_mean": frac_str(mean),
            "sample_mean_dec": frac_dec(mean),
            "expectation": frac_str(expectation),
            "expectation_dec": frac_dec(expectation),
        }
    emit(report, args)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    text = read_text(args.file)
    if args.kind == "graph":
        obj = parse_graph(text)
    else:
        obj = parse_complex(text)
    report = reductions.verify_reduction(
        obj,
        max_rows=opts.max_rows,
        max_cols=opts.max_cols,
        budget=opts.elimination_budget,
    )
    payload = report.to_json_dict()
    payload["command"] = f"reduce-{args.kind}"
    emit(payload, args)
    return 0


def _parse_keyvals(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key] = value
    return out


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def cmd_verify(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    params = _parse_keyvals(args.params)
    if set(params) != {"n"}:
        raise ValueError("verify --exhaustive expects exactly n=<N>")
    n = int(params["n"])
    if n < 3 or n > 7:
        raise ValueError("exhaustive verification supports 3 <= n <= 7")
    summary = reductions.exhaustive_verify(
        n, check_basis=args.check_basis, threads=opts.threads
    )
    summary["command"] = "verify-exhaustive"
    emit(summary, args)
    return 0 if summary["all_hold"] else 4


def _gap_point_dict(p: symmetric.SymGapPoint) -> dict:
    return {
        "n": p.n,
        "d": p.d,
        "k": p.k,
        "u": p.u,
        "v": frac_str(p.v),
        "v_dec": frac_dec(p.v),
        "upper_v": frac_str(p.upper_v),
        "upper_v_dec": frac_dec(p.upper_v),
        "ratio": frac_str(p.ratio),
        "ratio_dec": frac_dec(p.ratio),
    }


def cmd_sym_gap(args: argparse.Namespace) -> int:
    params = _parse_keyvals(args.params)
    if args.fixed:
        needed = {"d", "k", "n"}
        if set(params) != needed:
            raise ValueError("sym gap --fixed expects d=<d> k=<k> n=<range>")
        points = symmetric.sym_gap_series_fixed(
            int(params["d"]), int(params["k"]), _parse_range(params["n"])
        )
        mode = "fixed"
    else:
        needed = {"kp", "dp", "np", "m"}
        if set(params) != needed:
            raise ValueError("sym gap --scaled expects kp=<k'> dp=<d'> np=<n'> m=<range>")
        points = symmetric.sym_gap_series_scaled(
            int(params["kp"]), int(params["dp"]), int(params["np"]), _parse_range(params["m"])
        )
        mode = "scaled"
    if args.format == "csv":
        fields = [
            "n", "d", "k", "u",
            "v", "v_dec", "upper_v", "upper_v_dec", "ratio", "ratio_dec",
        ]
        sys.stdout.write(",".join(fields) + "\n")
        for p in points:
            row = _gap_point_dict(p)
            sys.stdout.write(",".join(str(row[f]) for f in fields) + "\n")
        return 0
    payload = {
        "command": "sym-gap",
        "mode": mode,
        "params": {k: v for k, v in sorted(params.items())},
        "points": [_gap_point_dict(p) for p in points],
    }
    emit(payload, args)
    return 0


def cmd_random_corpus(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    polys = random_polys(
        opts.seed,
        args.count,
        max_vars=args.max_vars,
        max_terms=args.max_terms,
        max_degree=args.max_degree,
    )
    payload = {
        "command": "random-corpus",
        "count": args.count,
        "seed": opts.seed,
        "max_vars": args.max_vars,
        "max_terms": args.max_terms,
        "max_degree": args.max_degree,
        "polys": [poly_to_json_dict(f) for f in polys],
    }
    emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_knobs(sub: argparse.ArgumentParser, command: str) -> None:
    """--format and the flag of each Options field the command's handler reads."""
    sub.add_argument("--format", choices=["json", "text"], default="text")
    for knob in fields(Options):
        if command in knob.metadata["commands"]:
            sub.add_argument("--" + knob.name.replace("_", "-"), type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pdrank`` argument parser, built once per process.

    The parser depends on no input, so every call returns the same one
    and in-process callers do not pay for its construction per request.
    ``set_defaults(func=cmd_*)`` binds each subcommand's handler when the
    parser is built: replacing a ``cmd_*`` function afterwards does not
    reach ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="pdrank",
        description="Exact derivative-space dimensions and fast bounds for sparse polynomials",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_dim = subs.add_parser("dim", help="exact dimension plus all bounds")
    p_dim.add_argument("file", help="polynomial file (text grammar or JSON), - for stdin")
    p_dim.add_argument("--k", type=int, default=None)
    p_dim.add_argument("--mode", choices=["k", "star", "plus"], default="k")
    _add_knobs(p_dim, "dim")
    p_dim.set_defaults(func=cmd_dim)

    p_bounds = subs.add_parser("bounds", help="fast bounds only")
    p_bounds.add_argument("file")
    p_bounds.add_argument("--k", type=int, required=True)
    _add_knobs(p_bounds, "bounds")
    p_bounds.set_defaults(func=cmd_bounds)

    for sub in (p_dim, p_bounds):
        sub.add_argument("--order", help="perm=<1-based indices>")
        sub.add_argument("--order-dir", choices=["min", "max"])
        sub.add_argument("--timing", action="store_true")

    p_trace = subs.add_parser("trace", help="trace statistics")
    p_trace.add_argument("file")
    p_trace.add_argument("--k", type=int, required=True)
    p_trace.add_argument("--oracle", action="store_true", help="cross-check explicitly")
    p_trace.add_argument("--samples", type=int, default=None, help="semirandom experiment")
    _add_knobs(p_trace, "trace")
    p_trace.set_defaults(func=cmd_trace)

    p_reduce = subs.add_parser("reduce", help="graph/complex construction report")
    p_reduce.add_argument("kind", choices=["graph", "complex"])
    p_reduce.add_argument("file")
    _add_knobs(p_reduce, "reduce")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = subs.add_parser("verify", help="exhaustive identity verification")
    p_verify.add_argument("--exhaustive", action="store_true", required=True)
    p_verify.add_argument("params", nargs="+", help="n=<N>")
    p_verify.add_argument("--check-basis", dest="check_basis", action="store_true")
    _add_knobs(p_verify, "verify")
    p_verify.set_defaults(func=cmd_verify)

    p_sym = subs.add_parser("sym", help="symmetric polynomial experiments")
    sym_subs = p_sym.add_subparsers(dest="sym_command", required=True)
    p_gap = sym_subs.add_parser("gap", help="proxy-vs-rank gap series")
    mode = p_gap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixed", action="store_true")
    mode.add_argument("--scaled", action="store_true")
    p_gap.add_argument("params", nargs="+", help="key=value parameters")
    p_gap.add_argument("--format", choices=["json", "text", "csv"], default="text")
    p_gap.set_defaults(func=cmd_sym_gap)

    p_corpus = subs.add_parser("random-corpus", help="seeded random polynomial corpus")
    p_corpus.add_argument("--count", type=int, default=100)
    p_corpus.add_argument("--max-vars", dest="max_vars", type=int, default=8)
    p_corpus.add_argument("--max-terms", dest="max_terms", type=int, default=10)
    p_corpus.add_argument("--max-degree", dest="max_degree", type=int, default=4)
    _add_knobs(p_corpus, "random-corpus")
    p_corpus.set_defaults(func=cmd_random_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3
    except InvariantViolation as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
