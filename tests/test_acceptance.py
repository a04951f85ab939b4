"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the exact checks use zero tolerance.
"""

import itertools
import json
import math
import time
from fractions import Fraction

from pdrank import (
    SparsePoly,
    closed_form_L,
    count_faces,
    count_independent_sets,
    dim_partials,
    explicit_B_oracle,
    graph_complex,
    graph_to_poly,
    lower_bound_extremal,
    monomial_dim_profile,
    parse_poly,
    partial_plus_basis,
    proxy_rank,
    semirandom_estimate,
    semirandom_expectation,
    sym_exact_dim,
    sym_poly,
    sym_trace_B,
    sym_trace_B2,
    to_scaled,
    trace_B,
    trace_B2,
    trace_stats,
    upper_bound_linearity,
)
from pdrank.cli import main as cli_main
from pdrank.combinat import binom
from pdrank.corpus import random_monomials, random_polys, random_pure_complexes
from pdrank.polyio import support_size
from pdrank.reductions import all_graphs, poly_stack_rank
from pdrank.symmetric import disjointness_matrix, sym_proxy, sym_upper_v
from pdrank.exact import sparse_int_rank

CORPUS_SEED = 20240831


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _power_sum_plus_product(n: int) -> SparsePoly:
    return parse_poly(
        "+".join(
            ["*".join(f"x{i}" for i in range(1, n + 1))]
            + [f"x{i}^{n}" for i in range(1, n + 1)]
        )
    )


def test_criterion_01_example_dimensions():
    """Product-plus-powers example: exact dimensions for n = 5 and n = 6."""
    t0 = time.monotonic()
    ok = True
    for n in (5, 6):
        f = _power_sum_plus_product(n)
        for k in range(n + 1):
            expected = 1 if k in (0, n) else n if k in (1, n - 1) else binom(n, k) + n
            if dim_partials(f, range(k, k + 1)) != expected:
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, f"n=5,6 all k exact dimensions match, {elapsed:.2f}s < 10s")


def _corpus_with_ks():
    corpus = random_polys(CORPUS_SEED, count=100, max_vars=8, max_terms=10, max_degree=4)
    assert len(corpus) >= 100
    for f in corpus:
        max_sup = max(support_size(t.exps) for t in f.terms)
        yield f, max_sup


def test_criterion_02_trace_oracle_equivalence():
    """Closed-form traces equal explicit materialization, exactly."""
    pairs = 0
    ok = True
    for f, max_sup in _corpus_with_ks():
        scaled = to_scaled(f)
        for k in range(max_sup + 2):  # +1 past the top exercises the vacuous case
            oracle = explicit_B_oracle(f, k)
            if trace_B(scaled, k) != oracle.stats.tr_b:
                ok = False
            if trace_B2(scaled, k) != oracle.stats.tr_b2:
                ok = False
            pairs += 1
    report(2, ok, f"100 random polynomials, {pairs} (f,k) pairs, zero tolerance")


def test_criterion_03_bound_sandwich():
    """L <= proxy <= rank(B) <= exact dim <= linearity upper; extremal <= dim."""
    violations = 0
    pairs = 0
    for f, max_sup in _corpus_with_ks():
        scaled = to_scaled(f)
        degree = f.degree
        for k in range(degree + 1):
            exact_dim = dim_partials(f, range(k, k + 1))
            if not lower_bound_extremal(f, k) <= exact_dim:
                violations += 1
            if not exact_dim <= upper_bound_linearity(f, k):
                violations += 1
            if k <= max_sup:
                stats = trace_stats(f, k)
                oracle = explicit_B_oracle(f, k)
                chain = (
                    closed_form_L(scaled, k)
                    <= stats.proxy
                    <= oracle.rank_b
                    <= exact_dim
                )
                if not chain:
                    violations += 1
            pairs += 1
    report(3, violations == 0, f"{pairs} (f,k) pairs checked, {violations} violations")


def test_criterion_04_reduction_identity_exhaustive():
    """All edge sets on 3, 4, 5 vertices: both identities, exactly."""
    t0 = time.monotonic()
    checked = 0
    ok = True
    for n in (3, 4, 5):
        for g in all_graphs(n):
            if g.m == 0:
                continue
            ind = count_independent_sets(g)
            faces = count_faces(graph_complex(g))
            f = graph_to_poly(g)
            dim_plus = dim_partials(f, range(1, f.degree))
            if faces != 2**n - ind - 1 or dim_plus != 2 * faces:
                ok = False
            checked += 1
    elapsed = time.monotonic() - t0
    expected_total = sum(2 ** math.comb(n, 2) - 1 for n in (3, 4, 5))
    ok = ok and checked == expected_total and elapsed < 600.0
    report(4, ok, f"{checked} graphs (= {expected_total}), {elapsed:.1f}s < 600s")


def test_criterion_05_basis_full_rank_random_families():
    """Random pure facet families: explicit basis has full rank 2|faces|."""
    families = random_pure_complexes(
        CORPUS_SEED, count=50, max_ground=8, max_facets=8, max_facet_size=4
    )
    ok = True
    for sc in families:
        faces = count_faces(sc)
        basis = partial_plus_basis(sc)
        if len(basis) != 2 * faces or poly_stack_rank(basis) != 2 * faces:
            ok = False
        from pdrank import complex_to_poly

        f = complex_to_poly(sc)
        if dim_partials(f, range(f.degree + 1)) != 2 * faces + 2:
            ok = False
    report(5, ok, f"{len(families)} pure facet families, basis rank and star dimension exact")


def test_criterion_06_monomial_profile_vs_rank():
    """Single-monomial profiles match matrix ranks order by order."""
    monomials = random_monomials(CORPUS_SEED, count=100, max_vars=6, max_degree=12)
    ok = True
    for f in monomials:
        alpha = f.terms[0].exps
        profile = monomial_dim_profile(alpha)
        product = 1
        for a in alpha:
            product *= a + 1
        if sum(profile) != product:
            ok = False
        for k, expected in enumerate(profile):
            if dim_partials(f, range(k, k + 1)) != expected:
                ok = False
    report(6, ok, "100 random monomials: profile equals rank per order, sum equals product")


def test_criterion_07_product_polynomial():
    """prod_i sum_j x_ij has dimension C(d, k), independent of q."""
    ok = True
    for d in range(1, 5):
        for q in range(1, 4):
            variables = [f"x{i}_{j}" for i in range(1, d + 1) for j in range(1, q + 1)]
            items = []
            for choice in itertools.product(range(q), repeat=d):
                exps = [0] * (d * q)
                for i, j in enumerate(choice):
                    exps[i * q + j] = 1
                items.append((tuple(exps), 1))
            f = SparsePoly.from_terms(variables, items)
            for k in range(d + 1):
                if dim_partials(f, range(k, k + 1)) != binom(d, k):
                    ok = False
    report(7, ok, "d <= 4, q <= 3, all k: dimension equals C(d, k) exactly")


def test_criterion_08_symmetric_closed_forms():
    """Closed-form traces and dimensions agree with the generic machinery."""
    ok = True
    cases = 0
    for n in range(1, 9):
        for d in range(1, n + 1):
            f = to_scaled(sym_poly(n, d))
            for k in range(d + 1):
                if sym_trace_B(n, d, k) != trace_B(f, k):
                    ok = False
                if sym_trace_B2(n, d, k) != trace_B2(f, k):
                    ok = False
                closed = min(binom(n, k), binom(n, d - k))
                rank = sparse_int_rank(disjointness_matrix(n, d, k))
                if not closed == rank == sym_exact_dim(n, d, k):
                    ok = False
                cases += 1
    report(8, ok, f"n <= 8, all (d, k): {cases} cases, traces and ranks exact")


def test_criterion_09_fixed_gap_trend():
    """d=3, k=1: proxy below its closed-form bound out to n = 200."""
    t0 = time.monotonic()
    ok = True
    for n in range(4, 201):
        if not sym_proxy(n, 3, 1) <= sym_upper_v(n, 3, 1):
            ok = False
    upper_200 = sym_upper_v(200, 3, 1)
    ok = ok and upper_200 < Fraction(11, 10)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(
        9,
        ok,
        f"v_n <= upper bound for 4..200, upper(200) = {float(upper_200):.4f} < 1.1, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_10_scaled_gap_trend():
    """k'=1, d'=3, n'=8: the ratio proxy/rank strictly decreases over m = 1..3."""
    from pdrank import sym_gap_series_scaled

    points = sym_gap_series_scaled(1, 3, 8, [1, 2, 3])
    ratios = [p.ratio for p in points]
    ok = ratios[0] > ratios[1] > ratios[2]
    report(10, ok, f"ratios {[str(r) for r in ratios]} strictly decreasing")


def test_criterion_11_semirandom_monte_carlo():
    """Sample mean of L(f) within 5% relative error of its expectation."""
    supports = [
        [(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 1, 0)],
        [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1)],
        [(2, 1, 0), (0, 3, 0), (1, 1, 1)],
        [(1, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
        [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 0, 0, 0)],
    ]
    ok = True
    details = []
    for idx, support in enumerate(supports):
        k = 1
        expected = semirandom_expectation(support, k)
        mean = semirandom_estimate(support, k, samples=2000, rng_seed=CORPUS_SEED + idx)
        rel_err = abs(mean - expected) / expected
        details.append(f"{float(rel_err):.4f}")
        if rel_err > Fraction(5, 100):
            ok = False
    report(11, ok, f"5 supports x 2000 samples, relative errors {details} all <= 0.05")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    """Every subcommand is byte-identical across two runs at a fixed seed."""
    poly_path = tmp_path / "f.poly"
    poly_path.write_text("x1*x2*x3 + x1^3 + 2*x2 - 1/3*x3^2")
    graph_path = tmp_path / "g.edges"
    graph_path.write_text("p 4\n1 2\n2 3\n3 4\n")
    complex_path = tmp_path / "c.facets"
    complex_path.write_text("1 2\n2 3\n3 4\n")
    invocations = [
        ("dim", "--k", "2", str(poly_path), "--format", "json", "--seed", "17"),
        ("bounds", "--k", "1", str(poly_path), "--format", "json", "--seed", "17"),
        (
            "trace", "--k", "1", str(poly_path),
            "--oracle", "--samples", "25", "--seed", "17", "--format", "json",
        ),
        ("reduce", "graph", str(graph_path), "--format", "json"),
        ("reduce", "complex", str(complex_path), "--format", "json"),
        ("verify", "--exhaustive", "n=3", "--format", "json"),
        ("sym", "gap", "--fixed", "d=3", "k=1", "n=4..10", "--format", "json"),
        ("sym", "gap", "--scaled", "kp=1", "dp=3", "np=8", "m=1..3", "--format", "json"),
        ("random-corpus", "--count", "10", "--seed", "17", "--format", "json"),
    ]
    ok = True
    for argv in invocations:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            ok = False
        json.loads(out1)  # output is valid JSON
    report(12, ok, f"{len(invocations)} seeded subcommands byte-identical across runs")
