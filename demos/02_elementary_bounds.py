#!/usr/bin/env python3
"""Fast bounds from a single monomial, and when they collapse.

The dimension of the order-k span of f dominates that of any extremal
monomial of f (the lex-least/greatest term, or any Newton-polytope
vertex).  That bound is free to compute and often sharp -- but a monomial
in the interior of the Newton polytope is invisible to it.
"""

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

print("=" * 70)
print("1. Dimension profile of a single monomial (generating-function DP)")
print("=" * 70)
for alpha in [(2, 1), (3, 3), (1, 1, 1, 1)]:
    profile = monomial_dim_profile(alpha)
    print(f"   alpha={alpha}: profile={profile}, sum={sum(profile)} "
          f"= prod(a_i+1)")

print()
print("=" * 70)
print("2. Extremal monomials depend on the order; every choice is valid")
print("=" * 70)
f = parse_poly("x1*x2 + x2^2 + x1^3")
for perm in [(0, 1), (1, 0)]:
    for direction in ("min", "max"):
        spec = MonomialOrderSpec(perm, direction)
        m = extremal_monomial(f, spec)
        print(f"   {spec.label():>16}: extremal exponent vector {m}")

print()
print("=" * 70)
print("3. Newton-polytope vertices by random linear functionals")
print("=" * 70)
n = 4
f = parse_poly(
    "+".join([f"x{i}^{n}" for i in range(1, n + 1)]
             + ["*".join(f"x{i}" for i in range(1, n + 1))])
)
verts = vertex_sample(f, trials=64, rng_seed=0)
print(f"   f = x1^4 + ... + x4^4 + x1*x2*x3*x4")
print(f"   certified vertices found: {sorted(verts)}")
print(f"   the all-ones vector is the simplex barycenter -- never a vertex")

print()
print("=" * 70)
print("4. The sandwich: single-monomial lower <= exact <= linearity upper")
print("=" * 70)
cases = ["x1*x2 + x3", "x1*x2*x3 + x1*x2*x4 + x3*x4", "x1^2*x2 + 2*x2*x3^2"]
for text in cases:
    f = parse_poly(text)
    print(f"   f = {text}")
    for k in range(f.degree + 1):
        low = lower_bound_extremal(f, k)
        exact = dim_partials(f, range(k, k + 1))
        up = upper_bound_linearity(f, k)
        print(f"     k={k}: {low:3d} <= {exact:3d} <= {up:3d}")

print()
print("=" * 70)
print("5. Where the single-monomial bound collapses")
print("=" * 70)
print("   For f = x1^n + ... + xn^n + x1*...*xn every extremal monomial is")
print("   some xi^n with profile 1 at interior orders, so the bound is 1,")
print("   while the true dimension is C(n,k) + n for 2 <= k <= n-2.  (The")
print("   trace method does better here; see demo 03.)")
n = 4
f = parse_poly(
    "+".join([f"x{i}^{n}" for i in range(1, n + 1)]
             + ["*".join(f"x{i}" for i in range(1, n + 1))])
)
for k in (1, 2, 3):
    print(f"     n=4, k={k}: extremal bound {lower_bound_extremal(f, k)}, "
          f"exact {dim_partials(f, range(k, k + 1))}")
