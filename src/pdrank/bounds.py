"""Fast elementary bounds on derivative-space dimensions.

Lower bounds come from a single well-chosen monomial: the minimal or
maximal term under a lexicographic order (any addition-compatible total
order works), or any certified vertex of the Newton polytope.  The
single-monomial dimension profile is computed by an exact generating
-function product.  Upper bounds use linearity of differentiation plus
row/column counts of the order-k derivative matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .exact import (
    DerivMatrix,
    OrderSpec,
    build_matrix,
)
from .polyio import ExponentVector, SparsePoly, total_degree

DEFAULT_VERTEX_TRIALS = 32
WEIGHT_BOUND = 2**31


@dataclass(frozen=True)
class MonomialOrderSpec:
    """A lexicographic order: compare coordinates in permuted positions.

    ``direction`` picks the smallest ("min") or largest ("max") tuple.
    Both choices are compatible with addition, so either end is a valid
    extremal monomial.
    """

    permutation: tuple[int, ...]
    direction: str = "min"

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation must be a bijection on range(n)")
        if self.direction not in ("min", "max"):
            raise ValueError("direction must be 'min' or 'max'")

    def key(self, exps: ExponentVector) -> tuple[int, ...]:
        return tuple(exps[p] for p in self.permutation)

    def label(self) -> str:
        return f"lex[{','.join(str(p) for p in self.permutation)}]:{self.direction}"


def default_order_family(n: int) -> list[MonomialOrderSpec]:
    """Identity and reversed coordinate orders, each in both directions."""
    ident = tuple(range(n))
    rev = tuple(reversed(ident))
    out = [MonomialOrderSpec(ident, "min"), MonomialOrderSpec(ident, "max")]
    if n > 1:
        out += [MonomialOrderSpec(rev, "min"), MonomialOrderSpec(rev, "max")]
    return out


def monomial_dim_profile(alpha: ExponentVector) -> list[int]:
    """Entry k = dimension of the order-k derivative span of x^alpha.

    Computed as the coefficients of prod_i (1 + t + ... + t^alpha_i); the
    profile has length deg+1 and sums to prod(alpha_i + 1).
    """
    profile = [1]
    for a in alpha:
        if a == 0:
            continue
        new = [0] * (len(profile) + a)
        for k, c in enumerate(profile):
            for j in range(a + 1):
                new[k + j] += c
        profile = new
    return profile


def extremal_monomial(f: SparsePoly, order: MonomialOrderSpec) -> ExponentVector:
    """Exponent vector of the term extremal under the given lex order."""
    if f.is_zero:
        raise ValueError("extremal monomial of the zero polynomial")
    pick = min if order.direction == "min" else max
    best = pick(f.terms, key=lambda t: order.key(t.exps))
    return best.exps


def vertex_sample(
    f: SparsePoly,
    trials: int = DEFAULT_VERTEX_TRIALS,
    rng_seed: int = 0,
) -> dict[ExponentVector, tuple[int, ...]]:
    """Sample certified vertices of the Newton polytope of f.

    Each trial draws a random integer weight vector and keeps the exponent
    vector maximizing the weighted sum only if the maximizer is unique;
    unique maximizers of linear functionals are exactly the vertices.  The
    returned dict maps each vertex found to a certifying weight vector, in
    the order the vertices were first found.  The set may be incomplete;
    every member is a true vertex.  A weighted sum visits the nonzero
    exponents of its term only.
    """
    if f.is_zero:
        raise ValueError("vertex sample of the zero polynomial")
    rng = random.Random(rng_seed)
    n = len(f.vars)
    monomials = [t.exps for t in f.terms]
    supports = [[i for i, e in enumerate(exps) if e] for exps in monomials]
    powers = [[e for e in exps if e] for exps in monomials]
    found: dict[ExponentVector, tuple[int, ...]] = {}
    for _ in range(trials):
        w = tuple(rng.randint(-WEIGHT_BOUND, WEIGHT_BOUND) for _ in range(n))
        values = [sum(map(mul, map(w.__getitem__, s), p)) for s, p in zip(supports, powers)]
        best = max(values)
        if values.count(best) == 1:
            found.setdefault(monomials[values.index(best)], w)
    return found


def extremal_candidates(
    f: SparsePoly,
    orders: Sequence[MonomialOrderSpec] | None = None,
    vertex_trials: int = DEFAULT_VERTEX_TRIALS,
    rng_seed: int = 0,
) -> dict[ExponentVector, str]:
    """Candidate monomials for the single-monomial lower bound, with labels."""
    if orders is None:
        orders = default_order_family(len(f.vars))
    candidates: dict[ExponentVector, str] = {}
    for spec in orders:
        m = extremal_monomial(f, spec)
        candidates.setdefault(m, spec.label())
    for m in vertex_sample(f, vertex_trials, rng_seed):
        candidates.setdefault(m, "newton-vertex")
    return candidates


def lower_bound_extremal(
    f: SparsePoly,
    k: int,
    orders: Sequence[MonomialOrderSpec] | None = None,
    vertex_trials: int = DEFAULT_VERTEX_TRIALS,
    rng_seed: int = 0,
) -> int:
    """Best single-monomial lower bound on the order-k derivative dimension.

    The order-k dimension of f dominates that of any extremal monomial
    (equivalently any Newton-polytope vertex), so the maximum over the
    candidate family is a valid lower bound for every k.
    """
    if f.is_zero:
        raise ValueError("lower bound of the zero polynomial")
    if k < 0:
        raise ValueError("k must be nonnegative")
    best = 0
    for m in extremal_candidates(f, orders, vertex_trials, rng_seed):
        profile = monomial_dim_profile(m)
        best = max(best, profile[k] if k < len(profile) else 0)
    return best


def upper_bound_linearity(
    f: SparsePoly,
    k: int,
    *,
    matrix: DerivMatrix | None = None,
) -> int:
    """Upper bound on the order-k derivative dimension.

    Minimum of (a) the sum of single-monomial profiles (linearity of
    differentiation), (b) the number of distinct rows of the order-k
    derivative matrix, and (c) the number of distinct columns.  ``matrix``
    is the order-k derivative matrix of f; when it is not given it is built
    here under the default caps.
    """
    if f.is_zero:
        return 0
    if k < 0:
        raise ValueError("k must be nonnegative")
    per_term = 0
    for t in f.terms:
        d = total_degree(t.exps)
        if k <= d:
            per_term += monomial_dim_profile(t.exps)[k]
    if k > f.degree:
        return 0
    if matrix is None:
        matrix = build_matrix(f, OrderSpec.exact(k))
    row_vectors = {tuple(sorted(row.items())) for row in matrix.entries}
    col_vectors: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(matrix.entries):
        for j, v in row.items():
            col_vectors.setdefault(j, []).append((i, v))
    distinct_cols = {tuple(vals) for vals in col_vectors.values()}
    return min(per_term, len(row_vectors), len(distinct_cols))
