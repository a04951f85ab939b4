#!/usr/bin/env python3
"""Exact derivative-space dimensions, order by order.

Walks through the exact machinery on a few instructive polynomials:
a single monomial (where the dimensions have a product formula), a
product of sums (where adding monomials does NOT add dimension), and a
polynomial whose dimension profile we tabulate completely.
"""

from pdrank import dim_partials, parse_poly

print("=" * 70)
print("1. A single monomial: x1^2 * x2^3")
print("=" * 70)
f = parse_poly("x1^2*x2^3")
for k in range(f.degree + 1):
    print(f"   order {k}: dim = {dim_partials(f, range(k, k + 1))}")
star = dim_partials(f, range(f.degree + 1))
print(f"   all orders: dim = {star}  (expected (2+1)*(3+1) = {3 * 4})")

print()
print("=" * 70)
print("2. Products of disjoint sums: many monomials, tiny dimension")
print("=" * 70)
# f = (x11 + x12 + x13)(x21 + x22 + x23): 9 monomials,
# but every order-1 derivative is one of just 2 linear forms.
f = parse_poly(
    "x11*x21 + x11*x22 + x11*x23 + x12*x21 + x12*x22 + x12*x23"
    " + x13*x21 + x13*x22 + x13*x23"
)
print(f"   terms: {len(f.terms)}")
for k in range(3):
    print(f"   order {k}: dim = {dim_partials(f, range(k, k + 1))}  "
          f"(binomial C(2,{k}))")

print()
print("=" * 70)
print("3. The product-plus-powers family: x1*...*xn + sum xi^n")
print("=" * 70)
for n in (4, 5):
    body = "+".join(
        ["*".join(f"x{i}" for i in range(1, n + 1))]
        + [f"x{i}^{n}" for i in range(1, n + 1)]
    )
    f = parse_poly(body)
    dims = [dim_partials(f, range(k, k + 1)) for k in range(n + 1)]
    print(f"   n={n}: dims by order = {dims}")
    print(f"        pattern: 1, n, C(n,k)+n for 2<=k<=n-2, n, 1")

print()
print("=" * 70)
print("4. All-order and interior-order spans of a homogeneous polynomial")
print("=" * 70)
f = parse_poly("x1*x2*x3 + x1^2*x2 + x2^2*x3")
per_order = [dim_partials(f, range(k, k + 1)) for k in range(f.degree + 1)]
star = dim_partials(f, range(f.degree + 1))
plus = dim_partials(f, range(1, f.degree))
print(f"   per-order dims: {per_order}, sum = {sum(per_order)}")
print(f"   all orders: {star} (homogeneous: equals the sum)")
print(f"   interior orders: {plus} (drops order 0 and the constants: star - 2)")
