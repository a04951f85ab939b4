"""Symmetric-polynomial closed forms against the generic trace machinery."""

import math
import random
from fractions import Fraction

import pytest

from pdrank import (
    dim_partials,
    sparse_int_rank,
    sym_exact_dim,
    sym_gap_series_fixed,
    sym_gap_series_scaled,
    sym_poly,
    sym_trace_B,
    sym_trace_B2,
    to_scaled,
    trace_B,
    trace_B2,
)
from pdrank import symmetric
from pdrank.combinat import binom
from pdrank.errors import InvariantViolation, ResourceLimitError
from pdrank.symmetric import disjointness_matrix, sym_proxy, sym_upper_v


def test_sym_poly_shapes():
    assert [str(t.coef) for t in sym_poly(3, 1).terms] == ["1", "1", "1"]
    assert len(sym_poly(3, 3).terms) == 1
    assert len(sym_poly(4, 2).terms) == 6
    f = sym_poly(5, 3)
    assert f.is_multilinear and f.is_homogeneous and f.degree == 3


def test_sym_poly_cap():
    with pytest.raises(ResourceLimitError):
        sym_poly(30, 15)  # C(30, 15) terms, over TERM_CAP


def test_sym_exact_dim_values():
    assert sym_exact_dim(6, 3, 1) == 6
    assert sym_exact_dim(6, 3, 0) == 1
    assert sym_exact_dim(6, 3, 3) == 1
    assert sym_exact_dim(8, 4, 2) == min(math.comb(8, 2), math.comb(8, 2))


def test_sym_exact_dim_cross_check_failure_is_invariant_violation(monkeypatch):
    def rank_deficient(n, d, k):
        return [{0: 1}] * math.comb(n, k)

    monkeypatch.setattr(symmetric, "disjointness_matrix", rank_deficient)
    with pytest.raises(InvariantViolation, match="disjointness rank 1"):
        sym_exact_dim(6, 3, 1)


def test_sym_exact_dim_symmetry_in_k():
    for n in range(2, 8):
        for d in range(1, n + 1):
            for k in range(d + 1):
                assert sym_exact_dim(n, d, k) == sym_exact_dim(n, d, d - k)


def test_sym_exact_dim_matches_full_matrix_rank():
    for n in range(2, 7):
        for d in range(1, n + 1):
            for k in range(d + 1):
                closed = sym_exact_dim(n, d, k)
                assert dim_partials(sym_poly(n, d), range(k, k + 1)) == closed


def test_disjointness_matrix_rank_explicit():
    rows = disjointness_matrix(6, 3, 1)
    assert len(rows) == 6
    assert sparse_int_rank(rows) == 6


def test_sym_trace_b_values_and_generic_agreement():
    assert sym_trace_B(6, 3, 1) == math.comb(5, 2) * math.comb(6, 1) == 60
    for n in range(1, 8):
        for d in range(1, n + 1):
            f = to_scaled(sym_poly(n, d))
            for k in range(d + 1):
                assert sym_trace_B(n, d, k) == trace_B(f, k)
    assert sym_trace_B(7, 3, 0) == math.comb(7, 3)  # k=0: number of monomials


def test_sym_trace_b2_oracle_validation():
    """The overlap-class formula must match the generic triple sum exactly."""
    for n in range(1, 7):
        for d in range(1, n + 1):
            f = to_scaled(sym_poly(n, d))
            for k in range(d + 1):
                assert sym_trace_B2(n, d, k) == trace_B2(f, k), (n, d, k)


def test_sym_trace_b2_k0_and_subsum_lower_bound():
    assert sym_trace_B2(6, 3, 0) == math.comb(6, 3) ** 2
    assert (
        sym_trace_B2(6, 3, 1)
        >= math.comb(4, 2) ** 2 * math.comb(5, 1) * math.comb(6, 1)
    )


def test_sym_proxy_equals_generic_proxy():
    from pdrank import proxy_rank

    for n, d, k in [(5, 2, 1), (6, 3, 1), (6, 3, 2), (7, 4, 2)]:
        assert sym_proxy(n, d, k) == proxy_rank(sym_poly(n, d), k)


def test_gap_series_fixed_trends():
    points = sym_gap_series_fixed(3, 1, range(4, 40))
    for p in points:
        assert p.v >= 1  # B is nonzero PSD here
        assert p.v <= p.upper_v
        assert p.u == min(math.comb(p.n, p.k), math.comb(p.n, p.d - p.k))
    uppers = [p.upper_v for p in points]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))  # decreasing toward 1


def test_gap_series_fixed_validation():
    with pytest.raises(ValueError):
        sym_gap_series_fixed(3, 3, [5])
    with pytest.raises(ValueError):
        sym_gap_series_fixed(3, 1, [3])  # need d < n
    with pytest.raises(ValueError):
        sym_gap_series_fixed(3, 2, [4])  # need n >= d + k


def test_gap_series_scaled_ratio_strictly_decreasing():
    points = sym_gap_series_scaled(1, 3, 8, [1, 2, 3])
    ratios = [p.ratio for p in points]
    assert ratios[0] > ratios[1] > ratios[2]
    assert points[0].v == Fraction(7, 4)
    assert points[0].u == 8


def test_gap_series_scaled_normalizes_k():
    # k'=2, d'=3 normalizes to k'=1: identical parameter triples
    a = sym_gap_series_scaled(2, 3, 8, [1, 2])
    b = sym_gap_series_scaled(1, 3, 8, [1, 2])
    assert a == b


def test_gap_series_scaled_validation():
    with pytest.raises(ValueError):
        sym_gap_series_scaled(1, 4, 8, [1])  # need d' < n'/2
    with pytest.raises(ValueError):
        sym_gap_series_scaled(2, 2, 9, [1])  # need k' < d'
    with pytest.raises(ValueError):
        sym_gap_series_scaled(1, 3, 8, [0])


def test_upper_v_requires_nonvacuous_subsum():
    with pytest.raises(ValueError):
        sym_upper_v(4, 3, 2)  # n < d + k


def test_upper_v_near_one_for_large_n():
    """Closed-form big-integer evaluation only; no matrices materialized."""
    for n in (200, 350, 500):
        value = sym_upper_v(n, 3, 1)
        assert 1 < value < Fraction(11, 10)


# The closed forms unfactored: C(n, k) inside the Tr(B^2) sum, upper_v from
# its unreduced numerator and denominator, and ratio = v / u.


def _unfactored_trace_B(n, d, k):
    symmetric._check_range(n, d, k)
    return binom(n - k, d - k) * binom(n, k)


def _unfactored_trace_B2(n, d, k):
    symmetric._check_range(n, d, k)
    total = 0
    for t in range(k + 1):
        pairs = binom(n, k) * binom(k, t) * binom(n - k, k - t)
        total += pairs * binom(n - 2 * k + t, d - k) ** 2
    return total


def _unfactored_proxy(n, d, k):
    tr_b, tr_b2 = _unfactored_trace_B(n, d, k), _unfactored_trace_B2(n, d, k)
    return Fraction(tr_b * tr_b, tr_b2) if tr_b2 else Fraction(0)


def _unfactored_upper_v(n, d, k):
    denom = binom(n - 2 * k, d - k) ** 2 * binom(n - k, k) * binom(n, k)
    if denom == 0:
        raise ValueError("upper bound undefined")
    return Fraction(binom(n - k, d - k) ** 2 * binom(n, k) ** 2, denom)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


def _random_triples(count):
    rng = random.Random(20)
    triples = []
    for _ in range(count):
        n = rng.randint(0, 40)
        d = rng.randint(0, n)
        triples.append((n, d, rng.randint(0, d)))  # n < 2k included
    for _ in range(count // 4):  # out of range in every way
        triples.append(tuple(rng.randint(-3, 12) for _ in range(3)))
    return triples


EDGE_TRIPLES = (
    [(n, d, d - 1) for d in range(1, 9) for n in range(d, 2 * d + 2)]  # k = d - 1
    + [(d + k, d, k) for d in range(1, 12) for k in range(d + 1)]  # n = d + k
    + [(10**45, 220, 110), (330, 220, 110), (329, 220, 110)]  # long ints
)


@pytest.mark.parametrize("triples", [_random_triples(400), EDGE_TRIPLES], ids=["random", "edges"])
def test_closed_forms_match_the_unfactored_forms(triples):
    """Equal Fractions, and ValueError exactly where the unfactored forms raise it."""
    assert any(n < 2 * k <= 2 * d <= 2 * n for n, d, k in triples)
    for n, d, k in triples:
        for shared, unfactored in [
            (sym_trace_B, _unfactored_trace_B),
            (sym_trace_B2, _unfactored_trace_B2),
            (sym_proxy, _unfactored_proxy),
            (sym_upper_v, _unfactored_upper_v),
        ]:
            assert _outcome(shared, n, d, k) == _outcome(unfactored, n, d, k), (shared, n, d, k)


@pytest.mark.parametrize("triples", [_random_triples(400), EDGE_TRIPLES], ids=["random", "edges"])
def test_gap_point_fields_match_the_unfactored_forms(triples):
    checked = 0
    for n, d, k in triples:
        if not 1 <= k <= d <= n - k:
            continue
        u = min(binom(n, k), binom(n, d - k))
        v = _unfactored_proxy(n, d, k)
        point = symmetric._gap_point(n, d, k)
        assert point == (n, d, k, u, v, _unfactored_upper_v(n, d, k), v / u)
        assert point._fields == ("n", "d", "k", "u", "v", "upper_v", "ratio")
        assert all(type(value) is Fraction for value in point[4:])
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("triples", [_random_triples(400), EDGE_TRIPLES], ids=["random", "edges"])
def test_gap_ints_are_the_reduced_unfactored_forms(triples):
    """Each pair of the integer core is coprime, has a positive denominator and is the
    numerator and denominator of the unfactored v, upper_v and v / u."""
    checked = 0
    for n, d, k in triples:
        if not 1 <= k <= d <= n - k:
            continue
        u, *pairs = symmetric._gap_ints(n, d, k)
        v = _unfactored_proxy(n, d, k)
        assert u == min(binom(n, k), binom(n, d - k))
        for (num, den), value in zip(pairs, [v, _unfactored_upper_v(n, d, k), v / u]):
            assert den > 0 and math.gcd(num, den) == 1
            assert (num, den) == (value.numerator, value.denominator), (n, d, k)
        checked += 1
    assert checked >= 40
