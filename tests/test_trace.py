"""Trace statistics vs. explicit Gram materialization and quadruple counting."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product, repeat
from pathlib import Path

import pytest

from pdrank import (
    ResourceLimitError,
    SparsePoly,
    build_matrix,
    closed_form_L,
    count_N,
    dim_partials,
    explicit_B_oracle,
    lower_bound_extremal,
    parse_poly,
    proxy_rank,
    semirandom_estimate,
    semirandom_expectation,
    sym_poly,
    sym_trace_B2,
    to_scaled,
    trace_B,
    trace_B2,
    trace_stats,
    upper_bound_linearity,
)
from pdrank import trace as trace_module
from pdrank.combinat import binom
from pdrank.corpus import random_polys
from pdrank.polyio import permute_vars, scale, support_size
from pdrank.trace import DEFAULT_TRIPLE_BUDGET, semirandom_L

GOLDEN_DIR = Path(__file__).parent / "data"


def triple_sum_by_count_N(f_scaled, k: int) -> Fraction:
    """Tr(B^2) by definition: sum of count_N * a_P * a_Q * a_R * a_{Q+R-P}."""
    coef = {t.exps: t.coef for t in f_scaled.terms}
    total = Fraction(0)
    for p, q, r in product(coef, repeat=3):
        n_count = count_N(p, q, r, k, coef)
        if n_count:
            s = tuple(qi + ri - pi for pi, qi, ri in zip(p, q, r))
            total += n_count * coef[p] * coef[q] * coef[r] * coef[s]
    return total


def quadruple_count(f_scaled, k: int) -> int:
    """Second oracle for 0/1-coefficient polynomials: count valid quadruples.

    Tr(B^2) equals the number of quadruples (I, J, K, L) with all four of
    a_{I+K}, a_{I+L}, a_{J+K}, a_{J+L} nonzero, I, J ranging over weight-k
    0/1 multi-indices and K, L over column monomials.
    """
    n = len(f_scaled.vars)
    monos = {t.exps for t in f_scaled.terms}
    row_indices = []
    for subset in combinations(range(n), k):
        beta = tuple(1 if i in subset else 0 for i in range(n))
        row_indices.append(beta)
    cols = set()
    for alpha in monos:
        for beta in row_indices:
            if all(b <= a for b, a in zip(beta, alpha)):
                cols.add(tuple(a - b for a, b in zip(alpha, beta)))
    count = 0
    for bi, bj, ck, cl in product(row_indices, row_indices, cols, cols):
        if (
            tuple(a + b for a, b in zip(bi, ck)) in monos
            and tuple(a + b for a, b in zip(bi, cl)) in monos
            and tuple(a + b for a, b in zip(bj, ck)) in monos
            and tuple(a + b for a, b in zip(bj, cl)) in monos
        ):
            count += 1
    return count


def test_trace_b_zero_one_counts_entries():
    f = to_scaled(parse_poly("x1*x2 + x2*x3 + x1*x3"))
    assert trace_B(f, 1) == 6  # three monomials, two nonzero entries each


def test_trace_b_order_zero_is_sum_of_squares():
    f = to_scaled(parse_poly("3*x1 - 1/2*x2^2"))
    # scaled coefficients are 3 and -1/2 * 2! = -1
    assert trace_B(f, 0) == sum((t.coef**2 for t in f.terms), Fraction(0)) == 10


def test_trace_b_symmetric_closed_form():
    f = to_scaled(sym_poly(6, 3))
    assert trace_B(f, 1) == math.comb(5, 2) * math.comb(6, 1)


def test_count_n_diagonal_case():
    f = to_scaled(parse_poly("x1*x2*x3 + x1^2"))
    monos = {t.exps for t in f.terms}
    p = (1, 1, 1)
    assert count_N(p, p, p, 2, monos) == math.comb(3, 2)


def test_count_n_rejects_non_monomial_and_large_steps():
    monos = {(1, 1, 0), (0, 1, 1)}
    # Q + R - P = (-1, 1, 2) is not a monomial
    assert count_N((1, 1, 0), (0, 1, 1), (0, 1, 1), 1, monos) == 0
    # P - R has an entry 2
    monos2 = {(2, 0), (0, 2), (1, 1)}
    assert count_N((2, 0), (1, 1), (0, 2), 1, monos2) == 0


def test_trace_b2_single_monomial_explicit():
    f = to_scaled(scale(parse_poly("x1*x2"), 3))  # scaled coefficient a = 3
    a = Fraction(3)
    assert trace_B(f, 1) == 2 * a**2
    assert trace_B2(f, 1) == 2 * a**4
    oracle = explicit_B_oracle(f, 1)
    assert oracle.stats.tr_b == 2 * a**2
    assert oracle.stats.tr_b2 == 2 * a**4


def test_trace_b2_permutation_pattern():
    f = to_scaled(parse_poly("x1*x2 + x3"))
    assert trace_B2(f, 1) == 3  # B is the 3x3 identity
    oracle = explicit_B_oracle(f, 1)
    assert oracle.stats.tr_b2 == 3
    assert oracle.rank_b == 3


def test_trace_b2_matches_quadruple_count_for_01_polys():
    cases = [
        "x1*x2 + x2*x3 + x1*x3",
        "x1*x2*x3 + x1 + x2*x3",
        "x1*x2 + x2*x3 + x3*x4 + x1*x4",
    ]
    for text in cases:
        f = to_scaled(parse_poly(text))
        for k in range(0, 3):
            assert trace_B2(f, k) == quadruple_count(f, k), (text, k)


def test_oracle_matrix_is_the_01_part_of_the_derivative_matrix():
    polys = random_polys(seed=73, count=20, max_vars=5, max_terms=6, max_degree=3)
    assert any(f.is_multilinear for f in polys)
    assert any(not f.is_multilinear for f in polys)
    for f in polys:
        for k in range(f.degree + 1):
            oracle = explicit_B_oracle(f, k).matrix
            full = build_matrix(f, range(k, k + 1))
            # One packing for both: the oracle's rows are full rows, ascending,
            # one per k-subset of some support, with the same entries.
            supports = [[i for i, a in enumerate(t.exps) if a] for t in f.terms]
            assert oracle.nrows == len({s for sup in supports for s in combinations(sup, k)})
            assert list(oracle.rows) == sorted(oracle.rows)
            full_rows = dict(zip(full.rows, full.entries))
            assert oracle.entries == tuple(full_rows[b] for b in oracle.rows)
            if f.is_multilinear:
                assert oracle == full


def test_traces_match_oracle_on_random_corpus():
    for f in random_polys(seed=71, count=20, max_vars=5, max_terms=6, max_degree=3):
        scaled = to_scaled(f)
        max_sup = max(support_size(t.exps) for t in f.terms)
        for k in range(max_sup + 2):
            oracle = explicit_B_oracle(f, k)
            assert trace_B(scaled, k) == oracle.stats.tr_b
            assert trace_B2(scaled, k) == oracle.stats.tr_b2
            grouped = trace_module._grouped_B2(scaled, k, DEFAULT_TRIPLE_BUDGET)
            assert grouped == oracle.stats.tr_b2  # the oracle shares the Gram route's sum


def dense_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_oracle_rank_b_is_the_rank_of_the_dense_gram():
    """The oracle ranks M, as rank(M^T M) = rank(M); B built dense here has that rank."""
    ranks = set()
    for f in random_polys(seed=74, count=20, max_vars=5, max_terms=6, max_degree=3):
        for k in range(f.degree + 2):
            oracle = explicit_B_oracle(f, k)
            rows = oracle.matrix.entries
            cols = sorted({j for row in rows for j in row})
            gram = [[sum(r.get(a, 0) * r.get(b, 0) for r in rows) for b in cols] for a in cols]
            assert oracle.rank_b == dense_rank(gram), (f, k)
            ranks.add(oracle.rank_b)
    assert 0 in ranks and max(ranks) >= 5


def test_oracle_refuses_by_the_rows_it_builds():
    """Three 12-term supports over 30 variables: C(30, 10) = 30045015, but M has 198 rows.

    The supports overlap in three variables, so no k-subset at k = 10 is
    shared: each term gives C(12, 10) = 66 rows.
    """
    wide = parse_poly((GOLDEN_DIR / "wide30.poly").read_text())
    oracle = explicit_B_oracle(wide, 10)
    assert oracle.matrix.nrows == 3 * math.comb(12, 10) == 198
    scaled = to_scaled(wide)
    assert oracle.stats.tr_b == trace_B(scaled, 10)
    assert oracle.stats.tr_b2 == trace_module._grouped_B2(scaled, 10, DEFAULT_TRIPLE_BUDGET)
    with pytest.raises(ResourceLimitError) as err:
        explicit_B_oracle(wide, 10, max_rows=197)
    assert (err.value.what, err.value.limit, err.value.actual) == ("rows", 197, 198)


def test_oracle_gram_stays_sparse():
    """720 columns: a dense 720 x 720 Gram matrix alone would take about 30 MB."""
    rng = random.Random(1)
    supports = set()
    while len(supports) < 200:
        supports.add(tuple(sorted(rng.sample(range(1, 31), 4))))
    f = parse_poly(
        " + ".join(
            f"{rng.randint(1, 9)}*" + "*".join(f"x{i}" for i in support)
            for support in sorted(supports)
        )
    )
    tracemalloc.start()
    try:
        oracle = explicit_B_oracle(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.matrix.ncols == 720
    scaled = to_scaled(f)
    assert (oracle.stats.tr_b, oracle.stats.tr_b2) == (trace_B(scaled, 1), trace_B2(scaled, 1))
    assert peak < 10_000_000


def routes_match_count_n(scaled, k: int) -> bool:
    """trace_B2 and each route, forced, equal the count_N sum; so does the Gram sum of M's rows.

    Returns whether the Gram route read M's rows (else its columns).
    """
    expected = triple_sum_by_count_N(scaled, k)
    nnz = trace_module._support_sum((t.exps for t in scaled.terms), repeat(1), k)
    assert trace_B2(scaled, k) == expected, (scaled, k)
    assert trace_module._gram_B2(scaled, k, nnz, DEFAULT_TRIPLE_BUDGET) == expected, (scaled, k)
    assert trace_module._grouped_B2(scaled, k, DEFAULT_TRIPLE_BUDGET) == expected, (scaled, k)
    matrix = trace_module._trace_matrix(scaled, k, max_rows=nnz, max_cols=nnz)
    by_rows = trace_module._frobenius_square(*trace_module._gram(matrix.entries))
    assert Fraction(by_rows, matrix.clear_factor**4) == expected, (scaled, k)
    return trace_module._cheaper_side(matrix)[0] is matrix.entries


def test_trace_b2_matches_count_n_triple_sum():
    polys = random_polys(seed=75, count=60, max_vars=6, max_terms=12, max_degree=4)
    # The corpus must exercise what the grouped integer sum handles specially.
    assert any(not f.is_multilinear for f in polys)
    assert any(len({t.coef.denominator for t in f.terms}) > 1 for f in polys)
    sides = set()
    for f in polys:
        scaled = to_scaled(f)
        max_sup = max(support_size(t.exps) for t in f.terms)
        for k in range(max_sup + 2):
            sides.add(routes_match_count_n(scaled, k))
    assert sides == {True, False}  # the Gram route read rows and columns


def assert_m_from_order_k_matrix(f, k: int) -> int:
    """M from f's order-k matrix equals M assembled on its own, and Tr(B^2) agrees.

    Returns the number of order-k rows the 0/1-key filter dropped.
    """
    scaled = to_scaled(f)
    full = build_matrix(f, range(k, k + 1))
    derived = trace_module._zero_one_rows(full, scaled)
    nnz = trace_module._support_sum((t.exps for t in scaled.terms), repeat(1), k)
    assert derived == trace_module._trace_matrix(scaled, k, max_rows=nnz, max_cols=nnz), (f, k)
    expected = triple_sum_by_count_N(scaled, k)
    assert trace_B2(scaled, k, matrix=full) == trace_B2(scaled, k) == expected, (f, k)
    assert trace_module._gram_B2(scaled, k, nnz, DEFAULT_TRIPLE_BUDGET, full) == expected
    return full.nrows - derived.nrows


def test_m_is_the_zero_one_rows_of_the_order_k_matrix():
    polys = random_polys(seed=79, count=40, max_vars=5, max_terms=8, max_degree=4)
    dropped = {f.is_multilinear: 0 for f in polys}
    assert set(dropped) == {True, False}
    for f in polys:
        for k in range(f.degree + 2):
            dropped[f.is_multilinear] += assert_m_from_order_k_matrix(f, k)
    assert dropped[True] == 0 and dropped[False] > 0
    # A multilinear f's order-k matrix is M itself, so its column view is shared.
    f = to_scaled(sym_poly(8, 4))
    full = build_matrix(f, range(2, 3))
    assert trace_module._zero_one_rows(full, f) is full
    assert full.columns() is full.columns()


def test_m_from_the_rational_golden_drops_rows():
    f = parse_poly((GOLDEN_DIR / "rational.poly").read_text())
    for k, rows, kept in ((2, 15, 10), (3, 16, 6)):
        assert build_matrix(f, range(k, k + 1)).nrows == rows
        assert assert_m_from_order_k_matrix(f, k) == rows - kept


def stepped_polys(seed: int, count: int) -> list:
    """Exponents 2..4 walked by steps of 1 and 2 between two coordinates.

    Each walk keeps the total degree, so same-degree term pairs differing by
    2 in a coordinate are common: the pair test must reject them.  About
    half the polynomials also carry a constant term.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        support = {tuple(rng.randint(2, 4) for _ in range(n))}
        for _ in range(rng.randint(2, 7)):
            e = list(rng.choice(sorted(support)))
            i, j = rng.sample(range(n), 2)
            step = rng.choice((1, 2))
            if e[i] + step <= 4 and e[j] - step >= 0:
                e[i] += step
                e[j] -= step
                support.add(tuple(e))
        if rng.random() < 0.5:
            support.add((0,) * n)
        items = [(e, Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))) for e in support]
        out.append(SparsePoly.from_terms([f"x{i}" for i in range(1, n + 1)], items))
    return out


def test_trace_b2_matches_count_n_on_steps_of_two():
    polys = stepped_polys(seed=77, count=40) + [parse_poly("5")]  # and no variables
    steps = [
        p.exps
        for f in polys
        for p in f.terms
        for r in f.terms
        if sum(p.exps) == sum(r.exps) and 2 in (abs(a - b) for a, b in zip(p.exps, r.exps))
    ]
    assert steps
    assert any(not any(t.exps) for f in polys for t in f.terms)
    for f in polys:
        scaled = to_scaled(f)
        max_sup = max(support_size(t.exps) for t in f.terms)
        for k in range(max_sup + 2):
            routes_match_count_n(scaled, k)


def test_trace_b2_builds_binomial_rows_once(monkeypatch):
    """The grouped sum takes at most (k+1)(n+1) binomials, however many buckets there are."""
    calls = 0
    original = trace_module.binom

    def counting(a, b):
        nonlocal calls
        calls += 1
        return original(a, b)

    monkeypatch.setattr(trace_module, "binom", counting)
    polys = [sym_poly(8, 4)] + stepped_polys(seed=78, count=10)
    polys += random_polys(seed=79, count=10, max_vars=8, max_terms=20, max_degree=4)
    for f in polys:
        scaled = to_scaled(f)
        for k in range(5):
            calls = 0
            trace_module._grouped_B2(scaled, k, DEFAULT_TRIPLE_BUDGET)
            assert calls <= (k + 1) * (len(f.vars) + 1), (f, k)


@pytest.mark.parametrize("n, d, k", [(9, 4, 3), (10, 5, 2), (12, 6, 3)])
def test_trace_b2_matches_sym_closed_form_large(n, d, k):
    assert trace_B2(to_scaled(sym_poly(n, d)), k) == sym_trace_B2(n, d, k)


def test_chain_L_proxy_rank_dim_upper():
    for f in random_polys(seed=72, count=12, max_vars=5, max_terms=6, max_degree=3):
        scaled = to_scaled(f)
        max_sup = max(support_size(t.exps) for t in f.terms)
        for k in range(max_sup + 1):
            stats = trace_stats(f, k)
            oracle = explicit_B_oracle(f, k)
            exact = dim_partials(f, range(k, k + 1))
            L = closed_form_L(scaled, k)
            assert L <= stats.proxy or stats.vacuous
            assert stats.proxy <= oracle.rank_b
            assert oracle.rank_b <= exact
            assert exact <= upper_bound_linearity(f, k)
            assert lower_bound_extremal(f, k) <= exact


def test_trace_b2_upper_bound_inequality():
    """Tr(B^2) <= |terms| * Tr(B) * sum of squared coefficients."""
    for f in random_polys(seed=73, count=12, max_vars=5, max_terms=6, max_degree=3):
        scaled = to_scaled(f)
        sq = sum((t.coef**2 for t in scaled.terms), Fraction(0))
        for k in range(0, 4):
            tb = trace_B(scaled, k)
            tb2 = trace_B2(scaled, k)
            assert tb2 <= len(scaled.terms) * tb * sq


def test_scale_and_permutation_invariance():
    f = parse_poly("x1^2*x2 + 2*x3 - x1*x2*x3")
    for k in range(3):
        base_stats = trace_stats(f, k)
        scaled_f = scale(f, Fraction(-5, 2))
        assert proxy_rank(scaled_f, k) == base_stats.proxy
        assert closed_form_L(to_scaled(scaled_f), k) == closed_form_L(to_scaled(f), k)
        g = permute_vars(f, (2, 0, 1))
        g_stats = trace_stats(g, k)
        assert g_stats.tr_b == base_stats.tr_b
        assert g_stats.tr_b2 == base_stats.tr_b2
        assert g_stats.proxy == base_stats.proxy


def test_closed_form_L_example():
    f = to_scaled(parse_poly("x1*x2 + x3"))
    assert closed_form_L(f, 1) == Fraction(3, 4)


def test_closed_form_L_equal_magnitudes_reduce():
    f = to_scaled(parse_poly("x1*x2 - x2*x3 + x1*x3"))
    s = len(f.terms)
    expected = Fraction(sum(math.comb(2, 1) for _ in range(3)), s * s)
    assert closed_form_L(f, 1) == expected


def test_proxy_example_lower_bound():
    n = 5
    f = parse_poly(
        "+".join(
            ["*".join(f"x{i}" for i in range(1, n + 1))]
            + [f"x{i}^{n}" for i in range(1, n + 1)]
        )
    )
    assert proxy_rank(f, 2) >= Fraction(math.comb(n, 2) + n, (n + 1) ** 2)


def test_traces_vanish_together():
    """Tr(B) = 0 exactly when Tr(B^2) = 0 (both mean B = 0)."""
    for f in random_polys(seed=74, count=10, max_vars=4, max_terms=5, max_degree=3):
        scaled = to_scaled(f)
        for k in range(0, 6):
            tb = trace_B(scaled, k)
            tb2 = trace_B2(scaled, k)
            assert (tb == 0) == (tb2 == 0)


def test_vacuous_case_flag():
    f = parse_poly("x1*x2")
    stats = trace_stats(f, 3)  # k exceeds every support size
    assert stats.vacuous
    assert stats.tr_b == 0 and stats.tr_b2 == 0 and stats.proxy == 0
    oracle = explicit_B_oracle(f, 3)
    assert oracle.stats.vacuous and oracle.rank_b == 0


def test_trace_b2_budget():
    f = sym_poly(8, 4)
    with pytest.raises(ResourceLimitError) as err:
        trace_B2(to_scaled(f), 2, budget=10)
    assert err.value.what == "triple-sum"


def test_trace_b2_budget_is_exact_work():
    """The grouped sum's cap counts term pairs, then bucket pairings; equal work passes."""
    f = to_scaled(sym_poly(8, 4))
    grouped = trace_module._grouped_B2
    pairs = 70 * 70  # one degree class of 70 terms
    with pytest.raises(ResourceLimitError) as err:
        grouped(f, 2, pairs - 1)
    assert (err.value.what, err.value.actual) == ("triple-sum", pairs)
    # A difference D with j entries -1 (and j entries +1) pairs every term P
    # covering its -1 positions and missing its +1 positions; the masks
    # supp(P) minus supp(D) are the (4-j)-subsets of the other 8-2j variables.
    pairings = sum(
        math.comb(8, j) * math.comb(8 - j, j) * math.comb(8 - 2 * j, 4 - j) ** 2
        for j in range(3)
    )
    assert pairings == 42420 > pairs
    assert grouped(f, 2, pairings) == sym_trace_B2(8, 4, 2)
    with pytest.raises(ResourceLimitError) as err:
        grouped(f, 2, pairings - 1)
    assert (err.value.what, err.value.actual) == ("triple-sum", pairings)


def test_trace_b2_gram_budget_is_its_cost_then_falls_back(monkeypatch):
    """The Gram route runs at budget = its cost and hands over to the grouped sum below it.

    x1*x2 + x2^2 + x1^2*x2^2 at k = 1: 5 equal-degree pairs and 5 entries.
    Row x1 holds x2 and x1*x2^2, row x2 holds x2, x1 and x1^2*x2, so the
    rows cost 2^2 + 3^2 = 13 and the columns 2^2 + 1 + 1 + 1 = 7.
    """
    f = to_scaled(parse_poly("x1*x2 + x2^2 + x1^2*x2^2"))
    expected = triple_sum_by_count_N(f, 1)
    grouped = trace_module._grouped_B2
    grouped_calls = []

    def spy(*args):
        grouped_calls.append(args)
        return grouped(*args)

    monkeypatch.setattr(trace_module, "_grouped_B2", spy)
    assert trace_B2(f, 1, budget=7) == expected
    assert grouped_calls == []
    assert trace_B2(f, 1, budget=6) == expected
    assert len(grouped_calls) == 1
    with pytest.raises(ResourceLimitError) as err:
        trace_B2(f, 1, budget=4)
    assert (err.value.what, err.value.actual) == ("triple-sum", 5)


def test_trace_b2_route_choice(monkeypatch):
    """M no larger than the pair count takes the Gram route; a larger M is never built."""

    def refuse(*args, **kwargs):
        raise AssertionError("wrong route")

    f = to_scaled(sym_poly(8, 4))  # nnz 70 * C(4, 2) = 420 <= 70^2 pairs
    with monkeypatch.context() as m:
        m.setattr(trace_module, "_grouped_B2", refuse)
        assert trace_B2(f, 2) == sym_trace_B2(8, 4, 2)
    # Three multilinear terms of degree 20: nnz 3 * C(20, 10) = 554268 > 9 pairs.
    g = to_scaled(
        parse_poly(
            " + ".join(
                "*".join(f"x{i}" for i in range(lo, lo + 20)) for lo in (1, 3, 6)
            )
        )
    )
    monkeypatch.setattr(trace_module, "assemble", refuse)
    assert trace_B2(g, 10) == triple_sum_by_count_N(g, 10)


def test_semirandom_single_monomial_constant():
    support = [(1, 1, 1, 0)]
    est = semirandom_estimate(support, 2, samples=5, rng_seed=1)
    assert est == Fraction(math.comb(3, 2), 1)


def test_semirandom_equal_support_sizes_zero_variance():
    support = [(1, 1, 0), (0, 1, 1)]
    for seed in (0, 1, 2):
        est = semirandom_estimate(support, 1, samples=3, rng_seed=seed)
        assert est == Fraction(math.comb(2, 1), 2)


def test_semirandom_mean_close_to_expectation():
    support = [(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 1, 0)]
    k = 1
    expected = semirandom_expectation(support, k)
    est = semirandom_estimate(support, k, samples=600, rng_seed=42)
    assert abs(est - expected) <= Fraction(5, 100) * expected


def test_semirandom_L_matches_fraction_sums():
    """The integer sums equal the term-by-term Fraction sums they replaced."""
    for f in random_polys(seed=76, count=30, max_vars=5, max_terms=8, max_degree=4):
        support = [t.exps for t in f.terms]
        for coefs in ([t.coef for t in f.terms], [t.coef.numerator for t in f.terms]):
            for k in range(4):
                num = Fraction(0)
                sq = Fraction(0)
                for exps, c in zip(support, coefs):
                    num += binom(support_size(exps), k) * Fraction(c) ** 2
                    sq += Fraction(c) ** 2
                assert semirandom_L(support, coefs, k) == num / (len(support) * sq)


def test_semirandom_L_matches_direct_formula():
    support = [(2, 0), (1, 1)]
    coefs = [3, -2]
    expected = Fraction(
        math.comb(1, 1) * 9 + math.comb(2, 1) * 4, 2 * (9 + 4)
    )
    assert semirandom_L(support, coefs, 1) == expected
