#!/usr/bin/env python3
"""The trace method: rank lower bounds without building the matrix.

For the derivative matrix M (one derivative per variable at most) and
B = M^T M, the proxy rank Tr(B)^2/Tr(B^2) lower-bounds rank(B), hence the
derivative dimension.  Both traces collapse to term-level sums computable
in polynomial time, even though B itself can be exponentially large.
"""

from fractions import Fraction

from pdrank import (
    closed_form_L,
    dim_partials,
    explicit_B_oracle,
    lower_bound_extremal,
    parse_poly,
    proxy_rank,
    semirandom_estimate,
    semirandom_expectation,
    to_scaled,
    trace_stats,
)

print("=" * 70)
print("1. Trace statistics vs. explicit materialization (small oracle)")
print("=" * 70)
f = parse_poly("x1*x2 + x2*x3 + x1*x3")
for k in (1, 2):
    stats = trace_stats(f, k)
    oracle = explicit_B_oracle(f, k)
    print(f"   k={k}: closed-form Tr(B)={stats.tr_b}, Tr(B^2)={stats.tr_b2}")
    print(f"        explicit     Tr(B)={oracle.stats.tr_b}, "
          f"Tr(B^2)={oracle.stats.tr_b2}, rank(B)={oracle.rank_b}")

print()
print("=" * 70)
print("2. Where the trace bound beats the extremal-monomial bound")
print("=" * 70)
n = 5
f = parse_poly(
    "+".join(["*".join(f"x{i}" for i in range(1, n + 1))]
             + [f"x{i}^{n}" for i in range(1, n + 1)])
)
print("   f = x1*...*x5 + x1^5 + ... + x5^5")
for k in (1, 2, 3):
    extremal = lower_bound_extremal(f, k)
    proxy = proxy_rank(f, k)
    exact = dim_partials(f, range(k, k + 1))
    print(f"   k={k}: extremal bound {extremal}, proxy {proxy} "
          f"(~{float(proxy):.2f}), exact {exact}")

print()
print("=" * 70)
print("3. The full chain on one example: L <= proxy <= rank(B) <= dim")
print("=" * 70)
f = parse_poly("x1*x2*x3 + x1 + x2*x3 + 2*x1*x4")
k = 1
scaled = to_scaled(f)
L = closed_form_L(scaled, k)
stats = trace_stats(f, k)
oracle = explicit_B_oracle(f, k)
exact = dim_partials(f, range(k, k + 1))
print(f"   f = {f.vars}: L = {L} <= proxy = {stats.proxy} "
      f"<= rank(B) = {oracle.rank_b} <= dim = {exact}")

print()
print("=" * 70)
print("4. Semirandom coefficients: the expectation of L(f)")
print("=" * 70)
support = [(1, 1, 1, 0), (1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1)]
k = 1
expectation = semirandom_expectation(support, k)
print(f"   fixed support of {len(support)} monomials, k = {k}")
print(f"   E[L(f)] = sum C(sup,k) / s^2 = {expectation} "
      f"(~{float(expectation):.4f})")
for samples in (100, 1000, 4000):
    mean = semirandom_estimate(support, k, samples, rng_seed=1)
    err = abs(mean - expectation) / expectation
    print(f"   mean over {samples:5d} draws: ~{float(mean):.4f} "
          f"(relative error {float(err):.4%})")
