"""Fast elementary bounds on derivative-space dimensions.

Lower bounds come from a single well-chosen monomial: the minimal or
maximal term under a lexicographic order (any addition-compatible total
order works), or any certified vertex of the Newton polytope.  The
single-monomial dimension profile is computed by an exact generating
-function product, once per exponent multiset.  Every candidate is a
term, so the best term's profile entry is a ceiling: the lower bound
takes the lex candidates first, then runs vertex trials lazily, and
stops as soon as a candidate reaches it.  A vertex trial is one
big-integer sum of the weights times packed exponent columns, with one
fixed-width byte slot per term.  Upper bounds use linearity of
differentiation plus row/column counts of the order-k derivative matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .exact import DerivMatrix, build_matrix
from .polyio import ExponentVector, SparsePoly

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


def _profile_entry(alpha: ExponentVector, k: int) -> int:
    """Entry k of monomial_dim_profile(alpha), in O(min(k, |alpha| - k))
    steps per exponent.

    The profile is palindromic, so entry k equals entry |alpha| - k, and it
    is 0 past |alpha|.  Works modulo t^(k+1): a factor 1 + t + ... + t^a is
    a prefix sum (times 1/(1-t)) followed by subtracting the sum shifted by
    a+1 (times 1 - t^(a+1)), so an exponent of any size costs the same.
    """
    k = min(k, sum(alpha) - k)
    if k < 0:
        return 0
    coeffs = [1] + [0] * k
    for a in alpha:
        if a:
            coeffs = list(accumulate(coeffs))
            for j in range(k, a, -1):
                coeffs[j] -= coeffs[j - a - 1]
    return coeffs[k]


def _profile_column(monomials: Sequence[ExponentVector], k: int) -> list[int]:
    """Entry k of each term's profile, computed once per exponent multiset."""
    keys = list(map(tuple, map(sorted, monomials)))
    at_k = {key: _profile_entry(key, k) for key in set(keys)}
    return list(map(at_k.__getitem__, keys))


def _lex_extreme(monomials: Sequence[ExponentVector], order: MonomialOrderSpec) -> int:
    """Index of the term extremal under the given lex order.

    Keys are whole permuted exponent vectors, so no two terms tie and the
    index never enters the comparison.  Without variables the polynomial
    is one constant term.
    """
    if not order.permutation:
        return 0
    pick = min if order.direction == "min" else max
    keys = map(itemgetter(*order.permutation), monomials)
    return pick(zip(keys, range(len(monomials))))[1]


def extremal_monomial(f: SparsePoly, order: MonomialOrderSpec) -> ExponentVector:
    """Exponent vector of the term extremal under the given lex order."""
    if f.is_zero:
        raise ValueError("extremal monomial of the zero polynomial")
    monomials = [t.exps for t in f.terms]
    return monomials[_lex_extreme(monomials, order)]


def _unique_maximizers(
    monomials: Sequence[ExponentVector], trials: int, rng_seed: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (term index, weight vector) for each trial with a unique maximizer.

    Every term gets a fixed-width slot of big-endian bytes.  Column i is
    packed as one integer holding e_{j,i} in slot j, so one big-integer
    sum of weight times column, plus WEIGHT_BOUND * maxdeg in every slot,
    holds each term's weighted value shifted to be nonnegative.  Slots
    are wide enough for twice that shift, so no slot carries into the
    next, and equal-length big-endian bytes compare like the numbers
    they encode.  The weights are drawn in the same order as one
    ``randint`` per coordinate per trial.
    """
    rng = random.Random(rng_seed)
    bound = WEIGHT_BOUND
    n = len(monomials[0])
    shift = bound * max(map(sum, monomials))
    width = (2 * shift).bit_length() // 8 + 1
    columns = list(zip(*monomials))
    slot_bytes = {e: e.to_bytes(width, "big") for e in set().union(*columns)}
    packed = [
        int.from_bytes(b"".join(map(slot_bytes.__getitem__, col)), "big") for col in columns
    ]
    size = width * len(monomials)
    offset = int.from_bytes(shift.to_bytes(width, "big") * len(monomials), "big")
    slots = [slice(s, s + width) for s in range(0, size, width)]
    for _ in range(trials):
        w = tuple(rng.randint(-bound, bound) for _ in range(n))
        data = sum(map(mul, w, packed), offset).to_bytes(size, "big")
        values = list(map(data.__getitem__, slots))
        best = max(values)
        if values.count(best) == 1:
            yield values.index(best), w


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
    every member is a true vertex.  A trial is one big-integer sum over
    the variables: every term has a fixed-width byte slot in packed
    exponent columns, and the maximum is taken over the slots' bytes.
    """
    if f.is_zero:
        raise ValueError("vertex sample of the zero polynomial")
    monomials = [t.exps for t in f.terms]
    found: dict[ExponentVector, tuple[int, ...]] = {}
    for j, w in _unique_maximizers(monomials, trials, rng_seed):
        found.setdefault(monomials[j], w)
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
    candidate family is a valid lower bound for every k.  The candidates
    are terms, so the search stops at the first one whose profile entry
    equals the best term's; the vertex trials after it are never run.
    """
    if f.is_zero:
        raise ValueError("lower bound of the zero polynomial")
    if not 0 <= k <= f.degree:  # no derivative of order k
        return 0
    monomials = [t.exps for t in f.terms]
    column = _profile_column(monomials, k)
    ceiling = max(column)
    if orders is None:
        orders = default_order_family(len(f.vars))
    candidates = chain(
        (_lex_extreme(monomials, spec) for spec in orders),
        (j for j, _ in _unique_maximizers(monomials, vertex_trials, rng_seed)),
    )
    best = 0
    for j in candidates:
        best = max(best, column[j])
        if best == ceiling:
            break
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
    if f.is_zero or not 0 <= k <= f.degree:
        return 0
    per_term = sum(_profile_column([t.exps for t in f.terms], k))
    if matrix is None:
        matrix = build_matrix(f, range(k, k + 1))
    distinct_cols = set(map(frozenset, map(dict.items, matrix.columns().values())))
    return min(per_term, len(matrix.distinct_rows()), len(distinct_cols))
