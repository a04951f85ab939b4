"""Elementary bounds: profiles, extremal monomials, vertex sampling, sandwich."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrank import (
    MonomialOrderSpec,
    dim_partials,
    extremal_monomial,
    lower_bound_extremal,
    monomial_dim_profile,
    parse_poly,
    upper_bound_linearity,
    vertex_sample,
)
from pdrank import bounds
from pdrank.bounds import default_order_family, extremal_candidates
from pdrank.corpus import random_polys
from pdrank.polyio import scale


def test_profile_small_example():
    # (1 + t + t^2)(1 + t)
    assert monomial_dim_profile((2, 1)) == [1, 2, 2, 1]


def test_profile_single_variable_chain():
    assert monomial_dim_profile((7,)) == [1] * 8


def test_profile_constant():
    assert monomial_dim_profile(()) == [1]
    assert monomial_dim_profile((0, 0)) == [1]


@given(st.lists(st.integers(0, 5), min_size=1, max_size=5))
@settings(max_examples=100)
def test_profile_sum_is_product(alpha):
    alpha = tuple(alpha)
    prod = 1
    for a in alpha:
        prod *= a + 1
    assert sum(monomial_dim_profile(alpha)) == prod


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
@settings(max_examples=50)
def test_profile_symmetric_for_multilinear(alpha):
    profile = monomial_dim_profile(tuple(alpha))
    assert profile == profile[::-1]


def test_extremal_monomial_identity_lex_min():
    f = parse_poly("x1*x2 + x2^2")
    spec = MonomialOrderSpec((0, 1), "min")
    assert extremal_monomial(f, spec) == (0, 2)  # (0,2) < (1,1) lexicographically
    spec_max = MonomialOrderSpec((0, 1), "max")
    assert extremal_monomial(f, spec_max) == (1, 1)


def test_extremal_monomial_single_term_any_order():
    f = parse_poly("x1^2*x2")
    for spec in default_order_family(2):
        assert extremal_monomial(f, spec) == (2, 1)


def _power_sum_plus_product(n):
    return parse_poly(
        "+".join(
            [f"x{i}^{n}" for i in range(1, n + 1)]
            + ["*".join(f"x{i}" for i in range(1, n + 1))]
        )
    )


def test_extremal_monomial_never_interior_point():
    n = 4
    f = _power_sum_plus_product(n)
    ones = (1,) * n
    for spec in default_order_family(n):
        m = extremal_monomial(f, spec)
        assert m != ones
        assert sorted(m) == [0] * (n - 1) + [n]


def test_vertex_sample_excludes_barycenter():
    n = 4
    f = _power_sum_plus_product(n)
    verts = vertex_sample(f, trials=64, rng_seed=3)
    assert verts  # at least one vertex found
    for v in verts:
        assert v != (1,) * n
        assert sorted(v) == [0] * (n - 1) + [n]


def test_vertex_sample_certificates_are_unique_argmax():
    f = parse_poly("x1^3 + x2^3 + x1*x2 + 1")
    for exps, w in vertex_sample(f, trials=40, rng_seed=9).items():
        values = [
            sum(wi * e for wi, e in zip(w, t.exps)) for t in f.terms
        ]
        best = max(values)
        assert values.count(best) == 1
        assert sum(wi * e for wi, e in zip(w, exps)) == best


def test_vertex_sample_single_monomial_and_segment():
    f = parse_poly("5*x1^2*x2")
    assert set(vertex_sample(f, trials=4, rng_seed=0)) == {(2, 1)}
    seg = parse_poly("x1 + x2")
    found = vertex_sample(seg, trials=32, rng_seed=1)
    assert set(found) <= {(1, 0), (0, 1)}
    assert found


def reference_vertex_sample(f, trials, rng_seed, bound):
    """The dense loop vertex_sample replaced: every coordinate, every term."""
    rng = random.Random(rng_seed)
    n = len(f.vars)
    found = {}
    for _ in range(trials):
        w = tuple(rng.randint(-bound, bound) for _ in range(n))
        best_val = None
        best_exps = None
        unique = True
        for t in f.terms:
            val = sum(wi * e for wi, e in zip(w, t.exps))
            if best_val is None or val > best_val:
                best_val = val
                best_exps = t.exps
                unique = True
            elif val == best_val:
                unique = False
        if unique and best_exps is not None and best_exps not in found:
            found[best_exps] = w
    return found


@pytest.mark.parametrize("bound", [bounds.WEIGHT_BOUND, 2], ids=["default", "ties"])
def test_vertex_sample_matches_dense_reference(monkeypatch, bound):
    """Equal dicts in equal insertion order; bound 2 makes ties common."""
    monkeypatch.setattr(bounds, "WEIGHT_BOUND", bound)
    polys = random_polys(seed=91, count=100, max_vars=7, max_terms=12, max_degree=4)
    polys += random_polys(seed=92, count=100, max_vars=3, max_terms=6, max_degree=6)
    for i, f in enumerate(polys):
        trials = (1, 8, 32)[i % 3]
        want = reference_vertex_sample(f, trials, i, bound)
        assert list(vertex_sample(f, trials, i).items()) == list(want.items())


def reference_lower_bound(f, k, orders, trials, rng_seed):
    """The loop lower_bound_extremal replaced: every candidate's full profile."""
    best = 0
    for m in extremal_candidates(f, orders, trials, rng_seed):
        profile = monomial_dim_profile(m)
        best = max(best, profile[k] if k < len(profile) else 0)
    return best


@pytest.mark.parametrize("bound", [bounds.WEIGHT_BOUND, 2], ids=["default", "ties"])
def test_lower_bound_matches_candidate_reference(monkeypatch, bound):
    """Stopping at the per-term ceiling gives the full candidate maximum."""
    monkeypatch.setattr(bounds, "WEIGHT_BOUND", bound)
    polys = random_polys(seed=93, count=60, max_vars=6, max_terms=10, max_degree=5)
    polys += random_polys(seed=94, count=60, max_vars=3, max_terms=6, max_degree=7)
    rng = random.Random(95)
    for i, f in enumerate(polys):
        if f.is_zero:
            continue
        n = len(f.vars)
        perm = tuple(rng.sample(range(n), n))
        orders = (None, [], [MonomialOrderSpec(perm, rng.choice(["min", "max"]))])[i % 3]
        trials = (0, 1, 8, 32)[i % 4]
        for k in range(f.degree + 2):
            want = reference_lower_bound(f, k, orders, trials, i)
            assert lower_bound_extremal(f, k, orders, trials, i) == want


def test_lower_bound_without_candidates_is_zero():
    f = parse_poly("x1^2*x2 + x2^3")
    for k in range(5):
        assert lower_bound_extremal(f, k, orders=[], vertex_trials=0) == 0
    assert lower_bound_extremal(f, 1, orders=[], vertex_trials=8) == 2


def test_bounds_vanish_outside_the_orders_of_f():
    # No derivative has a negative order or one past the degree: the span is 0.
    f = parse_poly("x1^2*x2 + x2^3")
    for k in (-2, -1, 4):
        assert lower_bound_extremal(f, k) == upper_bound_linearity(f, k) == 0


def test_lower_bound_constant_without_variables():
    f = parse_poly("5")
    assert f.vars == ()
    assert vertex_sample(f, 4) == {(): ()}
    assert [lower_bound_extremal(f, k) for k in range(3)] == [1, 0, 0]
    assert lower_bound_extremal(f, 0, orders=[], vertex_trials=0) == 0
    assert extremal_monomial(f, MonomialOrderSpec((), "max")) == ()


def test_lower_bound_one_variable():
    f = parse_poly("x1^3 + 2*x1 + 1")
    for k in range(5):
        for trials in (0, 8):
            want = reference_lower_bound(f, k, None, trials, 0)
            assert lower_bound_extremal(f, k, vertex_trials=trials) == want
    assert list(vertex_sample(f, 16, 4).items()) == list(
        reference_vertex_sample(f, 16, 4, bounds.WEIGHT_BOUND).items()
    )


def test_lower_bound_huge_exponent_needs_a_wide_slot():
    """2^31 * 2^40 needs a ten-byte slot; profiles never expand x1^(2^40)."""
    big = 2**40
    f = parse_poly(f"x1^{big} + x2^3 + x1*x2")
    assert list(vertex_sample(f, 32, 7).items()) == list(
        reference_vertex_sample(f, 32, 7, bounds.WEIGHT_BOUND).items()
    )
    assert (1, 1) in vertex_sample(f, 32, 7)
    ks = [0, 1, 2, 3, 4, big, big + 1]
    assert [lower_bound_extremal(f, k, rng_seed=7) for k in ks] == [1, 2, 1, 1, 1, 1, 0]


def test_profile_column_matches_full_profiles():
    polys = random_polys(seed=96, count=40, max_vars=5, max_terms=8, max_degree=6)
    for f in polys:
        monomials = [t.exps for t in f.terms]
        for k in range(8):
            want = [
                monomial_dim_profile(m)[k] if k <= sum(m) else 0 for m in monomials
            ]
            assert bounds._profile_column(monomials, k) == want
    assert bounds._profile_entry((2**40, 3), 2) == 3


def test_extremal_monomial_matches_key_reference():
    polys = random_polys(seed=97, count=40, max_vars=4, max_terms=8, max_degree=4)
    for f in polys:
        if f.is_zero:
            continue
        for perm in itertools.permutations(range(len(f.vars))):
            for direction, pick in (("min", min), ("max", max)):
                spec = MonomialOrderSpec(perm, direction)
                want = pick(f.terms, key=lambda t: spec.key(t.exps)).exps
                assert extremal_monomial(f, spec) == want


def test_vertex_sample_slots_hold_the_extreme_values(monkeypatch):
    """With bound 2 and degree 64 a term reaches 2 * 2 * 64 = 256 after the shift."""
    monkeypatch.setattr(bounds, "WEIGHT_BOUND", 2)
    for text in ("x1^64 + x2", "x1^64 + x2^64 + x1^32*x2^32", "x1^63*x2 + x1 + x2^64"):
        f = parse_poly(text)
        for seed in range(5):
            want = reference_vertex_sample(f, 64, seed, 2)
            assert list(vertex_sample(f, 64, seed).items()) == list(want.items())


def test_lower_bound_multilinear_is_binomial():
    f = parse_poly("x1*x2*x3 + x1*x2*x4 + x2*x3*x4")
    for k in range(4):
        assert lower_bound_extremal(f, k) == math.comb(3, k)


def test_lower_bound_collapses_on_barycenter_example():
    n = 4
    f = _power_sum_plus_product(n)
    for k in range(1, n):
        assert lower_bound_extremal(f, k) == 1


def test_lower_bound_tight_for_single_monomial():
    f = parse_poly("x1^2*x2^2")
    profile = monomial_dim_profile((2, 2))
    for k in range(5):
        assert lower_bound_extremal(f, k) == profile[k]
        assert upper_bound_linearity(f, k) == profile[k]


def test_upper_bound_example():
    f = parse_poly("x1*x2 + x3")
    assert upper_bound_linearity(f, 1) == 3


def test_upper_bound_multilinear_homogeneous_term_sum():
    f = parse_poly("x1*x2*x3 + x1*x4*x5 + x2*x4*x5")
    # (a) = s * C(d, k) may or may not be the min; it is an upper bound anyway
    for k in range(4):
        assert upper_bound_linearity(f, k) <= 3 * math.comb(3, k)
        assert dim_partials(f, range(k, k + 1)) <= upper_bound_linearity(f, k)


def test_bounds_invariant_under_scaling():
    f = parse_poly("x1^2*x2 + 3*x3^2 + x1*x3")
    g = scale(f, Fraction(9, 7))
    for spec in default_order_family(3):
        assert extremal_monomial(f, spec) == extremal_monomial(g, spec)
    for k in range(f.degree + 1):
        assert lower_bound_extremal(f, k) == lower_bound_extremal(g, k)
        assert upper_bound_linearity(f, k) == upper_bound_linearity(g, k)


def test_extremal_candidates_labels():
    f = parse_poly("x1^2 + x2^2")
    cands = extremal_candidates(f, vertex_trials=8, rng_seed=0)
    assert set(cands) == {(2, 0), (0, 2)}


def test_sandwich_on_random_corpus():
    for i, f in enumerate(random_polys(seed=23, count=15, max_vars=5, max_terms=6)):
        for k in range(f.degree + 1):
            exact = dim_partials(f, range(k, k + 1))
            assert lower_bound_extremal(f, k, rng_seed=i) <= exact
            assert exact <= upper_bound_linearity(f, k)


def test_order_spec_validation():
    with pytest.raises(ValueError):
        MonomialOrderSpec((0, 0), "min")
    with pytest.raises(ValueError):
        MonomialOrderSpec((0, 1), "down")
