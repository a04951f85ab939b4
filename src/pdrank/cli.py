"""Command-line front end: pdrank <subcommand>.

Subcommands
    dim            exact dimension plus every bound for one polynomial
    bounds         the fast bounds only (no exact rank)
    trace          trace statistics, optional explicit-matrix cross-check
    reduce         graph/complex construction reports
    verify         exhaustive small-graph identity verification
    sym            symmetric-polynomial gap series
    random-corpus  deterministic random polynomial corpus

The module holds argparse, the Options table and the handlers.  Each handler
builds its report as a dict, and pdrank.report writes it as JSON or text.  A
fixed --seed reproduces a report byte for byte; wall times need --timing.

Exit codes: 0 success, 2 input error, 3 resource cap exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

from . import bounds as bounds_mod
from . import exact, reductions, symmetric, trace
from .corpus import random_polys
from .errors import InvariantViolation, ParseError, ResourceLimitError
from .polyio import (
    SparsePoly,
    _parse_int,
    parse_complex,
    parse_graph,
    parse_poly,
    poly_from_json_dict,
    poly_to_json_dict,
    to_scaled,
)
from .report import SKIPPED, ZERO_POLY, Stages, emit, emit_gap, exact_str, frac_dec, frac_str

MAX_VERTEX_TRIALS = 10_000  # at most 0.3 ms each on 1000 terms
# The sym gap times are in-process wall times on a 2-vCPU x86-64 host, Python 3.11.
MAX_GAP_POINTS = 20_000  # sym gap --fixed d=5 k=2 n=7..20000: 0.19-0.25 s, 6.5 MB of JSON
MAX_GAP_POINT_SIZE = 35_000_000  # slowest admitted shapes, d=1000 k=999 n=2^32: 0.23-0.25 s
MAX_GAP_SERIES_SIZE = 40_000_000  # summed point sizes: d=6 k=3 n=9..20000, 31,312,722: 0.21-0.25 s
MAX_TRACE_SAMPLES = 4000  # the exact running mean: 1.2 s on multilinear40 at k=2
MAX_TRACE_TERM_SAMPLES = 200_000  # terms * samples: 4000 samples on 50 terms, 1.4 s
JSON_INT = functools.partial(_parse_int, "JSON number")  # json.loads's reader of an int literal
# The provenance of an exact_dim that a cap skipped, or of the zero polynomial, on every dim mode.
NO_RANK = "not computed: a cap stopped the rank (see status)"
ZERO_SPAN = "zero polynomial spans nothing"
ORDER_K_RANK = "fraction-free elimination rank of the derivative matrix"  # dim --k, bounds


def _knob(default: int | None, commands: str, least: int | None = 0, most: int | None = None):
    """An Options field, read by the named subcommands' handlers, in ``least``..``most``.

    A limit of None is no limit; a default of None is the flag's absence.
    """
    metadata = {"commands": commands.split(), "least": least, "most": most}
    return field(default=default, metadata=metadata)


@dataclass
class Options:
    """Resolved knobs: the CLI flag, else the default.

    Each field is an integer flag, its name with dashes for underscores, on
    the subcommands its metadata names; every integer flag is one.  Its text
    that is not an integer, or outside the field's ``least``..``most``, is
    an input error, named in one form for all of them.
    """

    k: int | None = _knob(None, "dim bounds trace")
    seed: int = _knob(0, "dim bounds trace random-corpus", least=None)
    max_rows: int = _knob(exact.DEFAULT_MAX_ROWS, "dim bounds trace reduce")
    max_cols: int = _knob(exact.DEFAULT_MAX_COLS, "dim bounds trace reduce")
    elimination_budget: int = _knob(exact.DEFAULT_ELIMINATION_BUDGET, "dim trace")
    budget: int = _knob(trace.DEFAULT_TRIPLE_BUDGET, "dim bounds trace")
    vertex_trials: int = _knob(
        bounds_mod.DEFAULT_VERTEX_TRIALS, "dim bounds", most=MAX_VERTEX_TRIALS
    )
    samples: int | None = _knob(None, "trace", least=1, most=MAX_TRACE_SAMPLES)
    # random-corpus sizes: all four at most take 2.3 s and write 20 MB of JSON
    count: int = _knob(100, "random-corpus", most=10_000)
    max_vars: int = _knob(8, "random-corpus", least=2, most=16)
    max_terms: int = _knob(10, "random-corpus", least=1, most=16)
    max_degree: int = _knob(4, "random-corpus", most=16)

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "Options":
        unread, why = unread_flags(args)
        for name in unread:
            value = getattr(args, name)  # None or False when the flag is absent
            if value is not None and value is not False:
                raise ValueError(f"--{name.replace('_', '-')} {why}")
        opts = cls()
        for knob in fields(cls):
            if args.subcommand not in knob.metadata["commands"]:
                continue
            text = getattr(args, knob.name)  # None where the flag is absent
            if text is None:
                continue
            flag = "--" + knob.name.replace("_", "-")
            value = _parse_int(flag, text)
            least, most = knob.metadata["least"], knob.metadata["most"]
            if (least is not None and value < least) or (most is not None and value > most):
                rule = f">= {least}" if most is None else f"in {least}..{most}"
                raise ValueError(f"{flag} must be {rule}, got {value}")
            setattr(opts, knob.name, value)
        return opts


def unread_flags(args: argparse.Namespace) -> tuple[tuple[str, ...], str]:
    """The flags, by attribute name, that a request of its subcommand does not read, and why.

    :meth:`Options.resolve` refuses each one given.
    """
    if args.subcommand == "dim" and args.mode != "k":
        # star and plus read only the matrix caps and the elimination budget
        unread = ("k", "order", "order_dir", "timing", "seed", "budget", "vertex_trials")
        return unread, f"applies to --mode k only, not to --mode {args.mode}"
    if args.subcommand == "trace" and not args.oracle:
        return ("max_rows", "max_cols", "elimination_budget"), "applies to trace only with --oracle"
    return (), ""


def read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_poly(path: str) -> SparsePoly:
    text = read_text(path)
    if text.lstrip().startswith("{"):
        return poly_from_json_dict(json.loads(text, parse_int=JSON_INT))
    return parse_poly(text)


def input_digest(f: SparsePoly) -> dict:
    return {
        "vars": len(f.vars),
        "terms": len(f.terms),
        "degree": None if f.is_zero else f.degree,
        "multilinear": f.is_multilinear,
        "homogeneous": f.is_homogeneous,
    }


# ---------------------------------------------------------------------------
# dim / bounds
# ---------------------------------------------------------------------------


def trace_section(
    f: SparsePoly,
    scaled: SparsePoly,
    k: int,
    opts: Options,
    matrix: exact.DerivMatrix | None = None,
):
    """The trace part of a dim --k, bounds or trace report.

    ``scaled`` is f in the scaled basis.  ``matrix`` is f's order-k
    derivative matrix when the request has built one (dim --k, bounds):
    the Gram route of Tr(B^2) then takes M as its 0/1-key rows.  Without
    it (trace, or a matrix past its caps) M is assembled on its own, so
    the trace needs no matrix cap.  Returns the trace statistics, the scaled-basis L and the report
    entries.
    """
    stats = trace.trace_stats(scaled, k, budget=opts.budget, matrix=matrix)
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
    return stats, l_scaled, entries


def parse_order_flag(args: argparse.Namespace, nvars: int):
    """The lex orders to try: the default family, or one permutation given
    as --order perm=2,1,3, in both directions unless --order-dir names one."""
    if args.order is None:
        if args.order_dir is not None:
            raise ValueError("--order-dir applies only with --order perm=<1-based indices>")
        return bounds_mod.default_order_family(nvars)
    if not args.order.startswith("perm="):
        raise ValueError("--order expects perm=<comma-separated 1-based indices>")
    perm = tuple(_parse_int("--order index", p) - 1 for p in args.order[len("perm=") :].split(","))
    if sorted(perm) != list(range(nvars)):
        raise ValueError("--order permutation must mention every variable once")
    directions = [args.order_dir] if args.order_dir else ["min", "max"]
    return [bounds_mod.MonomialOrderSpec(perm, d) for d in directions]


def build_bound_report(f: SparsePoly, k: int, args: argparse.Namespace, opts: Options) -> dict:
    """The order-k report of ``bounds``, and of ``dim --k``, which adds the exact rank.

    Each bound is named once, in ``table``, with its value and provenance;
    a name ending in ``_lower`` is a lower bound on the exact rank, any
    other an upper bound.
    """
    stages = Stages()
    if f.is_zero:
        parse_order_flag(args, len(f.vars))  # no bound is drawn, but the flags hold
        exact_entry = stages.record("exact", None, zero=True)
        return {
            "command": args.subcommand,
            "input": input_digest(f),
            "k": k,
            "exact_dim": exact_entry,
            "bounds": None,
            "trace": None,
            "provenance": {"exact_dim": exact_provenance(exact_entry, ORDER_K_RANK)},
            "seed": opts.seed,
        }

    # One order-k matrix serves the trace's Gram route, the linearity bound
    # and the exact rank.  A request past several caps names the first of:
    # the trace's pair count (O(s), so checked before the assembly), the
    # trace's other caps, the --order flag, the matrix caps.  So a capped
    # matrix is kept as its error, raised once the trace (on its own M) and
    # the flag are read.
    scaled = to_scaled(f)
    trace.check_pair_budget(scaled, opts.budget)
    stages.lap("trace")
    capped = None
    try:
        matrix = exact.build_matrix(
            scaled, range(k, k + 1), max_rows=opts.max_rows, max_cols=opts.max_cols
        )
    except ResourceLimitError as err:
        capped, matrix = err, None
    stages.lap("matrix")

    stats, l_scaled, trace_entries = trace_section(f, scaled, k, opts, matrix)
    stages.lap("trace")

    orders = parse_order_flag(args, len(f.vars))
    if capped is not None:
        raise capped
    table = {
        "extremal_lower": (
            bounds_mod.lower_bound_extremal(
                f, k, orders=orders, vertex_trials=opts.vertex_trials, rng_seed=opts.seed
            ),
            f"max single-monomial profile over {len(orders)} lex orders "
            f"plus {opts.vertex_trials} certified vertex trials (seed {opts.seed})",
        ),
        "L_lower": (l_scaled, "closed-form trace bound, scaled-basis coefficients"),
        "proxy_lower": (
            stats.proxy,
            "Tr(B)^2/Tr(B^2), B = M^T M, M the order-k rows with 0/1 keys; exact",
        ),
        "linearity_upper": (
            bounds_mod.upper_bound_linearity(f, k, matrix=matrix),
            "min(per-term profile sum, distinct rows, distinct cols)",
        ),
    }
    stages.lap("bounds")
    rank = functools.partial(exact.rank_exact, matrix, budget=opts.elimination_budget)
    exact_entry = stages.record("exact", rank if args.subcommand == "dim" else None)
    bound_entries = {
        name: frac_str(value) if isinstance(value, Fraction) else value
        for name, (value, _) in table.items()
    }
    value = exact_entry["value"]
    if exact_entry["status"] == "computed" and any(
        bound > value if name.endswith("_lower") else bound < value
        for name, (bound, _) in table.items()
    ):
        listed = " ".join(f"{name}={entry}" for name, entry in bound_entries.items())
        raise InvariantViolation(f"bound sandwich violated for k={k}: exact={value} {listed}")

    report = {
        "command": args.subcommand,
        "input": input_digest(f),
        "k": k,
        "exact_dim": exact_entry,
        "bounds": bound_entries,
        **trace_entries,
        "provenance": {
            **{name: why for name, (_, why) in table.items()},
            "exact_dim": exact_provenance(exact_entry, ORDER_K_RANK),
            "coefficients": "matrix entries use the scaled monomial basis",
        },
        "seed": opts.seed,
    }
    if args.timing:
        report["timings_seconds"] = {k2: round(v, 6) for k2, v in stages.seconds.items()}
    return report


def exact_provenance(entry: dict, why: str) -> str:
    """The provenance of an ``exact_dim`` record: ``ZERO_SPAN`` for the zero polynomial,
    ``NO_RANK`` if a cap skipped it, else ``why``."""
    status = entry["status"]
    if status == ZERO_POLY:
        return ZERO_SPAN
    return NO_RANK if status.startswith(SKIPPED) else why


def require_k(args: argparse.Namespace) -> None:
    """Refuse an order-k request (dim --mode k, bounds, trace) without --k."""
    if args.k is None:
        also = " (or --mode star|plus)" if args.subcommand == "dim" else ""
        raise ValueError(f"{args.subcommand} requires --k{also}")


def cmd_dim(args: argparse.Namespace) -> int:
    mode = args.mode
    if mode == "k":
        return cmd_bounds(args)
    opts = Options.resolve(args)
    f = load_poly(args.file)
    # star / plus: exact value only
    matrix = None
    if not f.is_zero:
        deg = f.degree
        if mode == "plus" and deg < 2:
            raise ValueError("interior-orders mode requires degree >= 2")
        orders = range(deg + 1) if mode == "star" else range(1, deg)
        matrix = exact.build_matrix(f, orders, max_rows=opts.max_rows, max_cols=opts.max_cols)
    rank = functools.partial(exact.rank_exact, matrix, budget=opts.elimination_budget)
    exact_entry = Stages().record("exact", rank, zero=f.is_zero)
    report = {
        "command": "dim",
        "input": input_digest(f),
        "mode": mode,
        "exact_dim": exact_entry,
        "provenance": {"exact_dim": exact_provenance(exact_entry, "fraction-free elimination rank")},
    }
    if mode == "star":
        report["note"] = (
            "all-orders span includes order 0 (the polynomial itself) and the "
            "top order (constants)"
        )
    emit(report, args)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """The order-k report: ``bounds``, and ``dim --k``, which adds the exact rank."""
    require_k(args)
    opts = Options.resolve(args)
    emit(build_bound_report(load_poly(args.file), opts.k, args, opts), args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    require_k(args)
    opts = Options.resolve(args)
    f = load_poly(args.file)
    if f.is_zero:
        raise ParseError("trace statistics are undefined for the zero polynomial")
    if opts.samples is not None and opts.samples * len(f.terms) > MAX_TRACE_TERM_SAMPLES:
        got = f"{opts.samples} * {len(f.terms)}"
        raise ValueError(f"samples * terms must be at most {MAX_TRACE_TERM_SAMPLES}, got {got}")
    k = opts.k
    scaled = to_scaled(f)
    stats, l_scaled, trace_entries = trace_section(f, scaled, k, opts)
    report: dict = {
        "command": "trace",
        "input": input_digest(f),
        "k": k,
        **trace_entries,
        "L_lower": frac_str(l_scaled),
        "seed": opts.seed,
    }
    if args.oracle:
        # The oracle shares its Gram sum with trace_B2's Gram route, so its
        # Tr(B^2) is held against the grouped sum, computed on its own.
        grouped = trace._grouped_B2(scaled, k, opts.budget)
        oracle = trace.explicit_B_oracle(
            scaled,
            k,
            max_rows=opts.max_rows,
            max_cols=opts.max_cols,
            budget=opts.elimination_budget,
        )
        match = oracle.stats.tr_b == stats.tr_b and oracle.stats.tr_b2 == grouped == stats.tr_b2
        report["oracle"] = {
            "tr_b": frac_str(oracle.stats.tr_b),
            "tr_b2": frac_str(oracle.stats.tr_b2),
            "rank_b": oracle.rank_b,
            "matches_closed_form": match,
        }
        if not match:
            raise InvariantViolation(
                f"trace oracle mismatch at k={k}: closed form "
                f"({frac_str(stats.tr_b)}, {frac_str(stats.tr_b2)}), "
                f"grouped {frac_str(grouped)} vs oracle "
                f"({frac_str(oracle.stats.tr_b)}, {frac_str(oracle.stats.tr_b2)})"
            )
    if opts.samples is not None:
        support = [t.exps for t in f.terms]
        mean = trace.semirandom_estimate(support, k, opts.samples, opts.seed)
        expectation = trace.semirandom_expectation(support, k)
        report["semirandom"] = {
            "samples": opts.samples,
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
    report = reductions.verify_reduction(obj, max_rows=opts.max_rows, max_cols=opts.max_cols)
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
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value
    return out


def _parse_range(key: str, text: str) -> Sequence[int]:
    """The value of ``key``, ``lo..hi`` or a comma list: a nonempty series of at most
    ``MAX_GAP_POINTS``.

    A range is counted as hi - lo + 1, since ``len`` of a range past the
    C ssize_t overflows, and two long ends give a count past the digit limit.
    """
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = _parse_int(key, lo), _parse_int(key, hi)
        values: Sequence[int] = range(lo, hi + 1)
        count = hi - lo + 1
    else:
        values = [_parse_int(key, v) for v in text.split(",")]
        count = len(values)
    if count <= 0:
        raise ValueError(f"empty range {text!r}")
    if count > MAX_GAP_POINTS:
        raise ValueError(
            f"a gap series has at most {MAX_GAP_POINTS} points, got {exact_str(count)}"
        )
    return values


def _check_gap_series(shapes: Sequence[tuple[int, int, int]]) -> None:
    """Refuse a Sym_{d,n} gap series, given by its (n, d, k) shapes, that is too large.

    With b = bit_length(n), every binomial of a point has at most d*b bits,
    and the work of the point grows like its size d*b*(d + b).  No point may
    have a size above ``MAX_GAP_POINT_SIZE``, and the sizes may not sum to
    more than ``MAX_GAP_SERIES_SIZE``.
    """
    sizes = [d * n.bit_length() * (d + n.bit_length()) for n, d, _ in shapes]
    largest = max(sizes)
    if largest > MAX_GAP_POINT_SIZE:
        n, d, _ = shapes[sizes.index(largest)]
        raise ValueError(
            f"gap point too large: d*b*(d+b) = {largest} > {MAX_GAP_POINT_SIZE}, "
            f"where d = {d} and b = bit_length(n) = {n.bit_length()}"
        )
    total = sum(sizes)
    if total > MAX_GAP_SERIES_SIZE:
        raise ValueError(
            f"gap series too large: d*b*(d+b) summed over {len(sizes)} points "
            f"= {total} > {MAX_GAP_SERIES_SIZE}"
        )


def cmd_verify(args: argparse.Namespace) -> int:
    params = _parse_keyvals(args.params)
    if set(params) != {"n"}:
        raise ValueError("verify --exhaustive expects exactly n=<N>")
    n = _parse_int("n", params["n"])
    if n < 3 or n > 7:
        raise ValueError("exhaustive verification supports 3 <= n <= 7")
    summary = reductions.exhaustive_verify(n, check_basis=args.check_basis)
    summary["command"] = "verify-exhaustive"
    emit(summary, args)
    return 0 if summary["all_hold"] else 4


def cmd_sym_gap(args: argparse.Namespace) -> int:
    params = _parse_keyvals(args.params)
    if args.fixed:
        needed = {"d", "k", "n"}
        if set(params) != needed:
            raise ValueError("sym gap --fixed expects d=<d> k=<k> n=<range>")
        d, n_values = _parse_int("d", params["d"]), _parse_range("n", params["n"])
        shapes = symmetric._fixed_shapes(d, _parse_int("k", params["k"]), n_values)
        mode = "fixed"
    else:
        needed = {"kp", "dp", "np", "m"}
        if set(params) != needed:
            raise ValueError("sym gap --scaled expects kp=<k'> dp=<d'> np=<n'> m=<range>")
        m_values = _parse_range("m", params["m"])
        dp, np_ = _parse_int("dp", params["dp"]), _parse_int("np", params["np"])
        shapes = symmetric._scaled_shapes(_parse_int("kp", params["kp"]), dp, np_, m_values)
        mode = "scaled"
    _check_gap_series(shapes)
    payload = {
        "command": "sym-gap",
        "mode": mode,
        "params": {k: v for k, v in sorted(params.items())},
    }
    emit_gap(payload, [(*shape, *symmetric._gap_ints(*shape)) for shape in shapes], args)
    return 0


def cmd_random_corpus(args: argparse.Namespace) -> int:
    opts = Options.resolve(args)
    polys = random_polys(
        opts.seed,
        opts.count,
        max_vars=opts.max_vars,
        max_terms=opts.max_terms,
        max_degree=opts.max_degree,
    )
    payload = {
        "command": "random-corpus",
        "count": opts.count,
        "seed": opts.seed,
        "max_vars": opts.max_vars,
        "max_terms": opts.max_terms,
        "max_degree": opts.max_degree,
        "polys": [poly_to_json_dict(f) for f in polys],
    }
    emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_knobs(sub: argparse.ArgumentParser, command: str) -> None:
    """--format and the flag of each Options field the command's handler reads, as text."""
    sub.add_argument("--format", choices=["json", "text"], default="text")
    for knob in fields(Options):
        if command in knob.metadata["commands"]:
            sub.add_argument("--" + knob.name.replace("_", "-"))


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
    p_dim.add_argument("--mode", choices=["k", "star", "plus"], default="k")
    _add_knobs(p_dim, "dim")
    p_dim.set_defaults(func=cmd_dim)

    p_bounds = subs.add_parser("bounds", help="fast bounds only")
    p_bounds.add_argument("file")
    _add_knobs(p_bounds, "bounds")
    p_bounds.set_defaults(func=cmd_bounds)

    for sub in (p_dim, p_bounds):
        sub.add_argument("--order", help="perm=<1-based indices>")
        sub.add_argument("--order-dir", choices=["min", "max"])
        sub.add_argument("--timing", action="store_true")

    p_trace = subs.add_parser("trace", help="trace statistics")
    p_trace.add_argument("file")
    p_trace.add_argument("--oracle", action="store_true", help="cross-check explicitly")
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
