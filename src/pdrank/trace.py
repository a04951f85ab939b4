"""Trace-based lower bounds on the order-k derivative dimension.

Let M be the matrix whose rows are the order-k derivatives taken at most
once per variable (rows indexed by k-subsets I of the variables, columns
by monomials, entry a_{I+J} in the scaled basis) and let B = M^T M.  Then

    dim of the order-k derivative span  >=  rank(B)  >=  Tr(B)^2 / Tr(B^2),

the latter by Cauchy-Schwarz on the eigenvalues of the symmetric
positive-semidefinite B.  Although B can be exponentially large, both
traces reduce to sums over the terms of f:

* Tr(B)   = sum over terms P of C(sup(P), k) * a_P^2,
* Tr(B^2) = sum over ordered term triples (P, Q, R) of
            N(P, Q, R) * a_P * a_Q * a_R * a_{Q+R-P},

where N(P, Q, R) counts the row indices I compatible with the triple and
is itself a single binomial coefficient (see :func:`count_N`).  A triple
contributes only when D = R - P = S - Q (S = Q+R-P) is a {-1,0,1} vector,
and N then depends only on D and the supports of P and Q outside D.  So
:func:`_grouped_B2` groups the ordered term pairs by their difference D
and pairs up pairs within each group: its cost is the s^2 term pairs plus
the bucket pairings, not s^3, and it sums integers with the denominators
cleared once.  When M has no more entries than there are term pairs,
:func:`trace_B2` instead sums the squares of M's Gram matrix on the
cheaper side, M^T M or M M^T, which is at most nnz(M) * s work.  M is
the rows with 0/1 keys of f's order-k derivative matrix: a caller that
has built that matrix (``dim --k``, ``bounds``) hands it over, and M is
read off it; otherwise M is assembled here.  Either way the proxy rank
Tr(B)^2/Tr(B^2) is computable in time polynomial in the number of terms.
A cheaper closed-form bound L(f) <= proxy is also provided.

All formulas use scaled-basis coefficients; for non-multilinear input this
matters, and reports expose the ordinary-coefficient variant as well.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import comb
from operator import mul
from typing import Iterable, Sequence

from .combinat import binom, cleared, packed_subsets
from .errors import ResourceLimitError
from .exact import (
    DEFAULT_ELIMINATION_BUDGET,
    DEFAULT_MAX_COLS,
    DEFAULT_MAX_ROWS,
    DerivMatrix,
    assemble,
    slot_width,
    sparse_int_rank,
)
from .polyio import (
    SCALED,
    ExponentVector,
    SparsePoly,
    support_size,
    to_scaled,
)

DEFAULT_TRIPLE_BUDGET = 10**9
COEF_BOUND = 2**30


def proxy_from_traces(tr_b: Fraction | int, tr_b2: Fraction | int) -> Fraction:
    """The rank bound Tr(B)^2 / Tr(B^2); 0 when B = 0, where both traces vanish."""
    return Fraction(tr_b * tr_b, tr_b2) if tr_b2 else Fraction(0)


@dataclass(frozen=True)
class TraceStats:
    """Exact trace statistics of B = M^T M for a polynomial at order k.

    ``vacuous`` is set when B = 0 (k exceeds every support size): the
    rank bound then says nothing and ``proxy`` is 0.
    """

    k: int
    monomial_count: int
    tr_b: Fraction
    tr_b2: Fraction

    @property
    def proxy(self) -> Fraction:
        return proxy_from_traces(self.tr_b, self.tr_b2)

    @property
    def vacuous(self) -> bool:
        return self.tr_b2 == 0


def _require_scaled(f: SparsePoly, who: str) -> None:
    if f.basis != SCALED:
        raise ValueError(f"{who} expects a scaled-basis polynomial")
    if f.is_zero:
        raise ValueError(f"{who} is undefined for the zero polynomial")


def _binomials(sizes: Iterable[int], k: int) -> list[int]:
    """C(size, k) for each support size, in C; none for a negative k, so every sum is 0."""
    return list(map(comb, sizes, repeat(k))) if k >= 0 else []


def _closed_form(sizes: Iterable[int], coefs: list[int], k: int) -> tuple[int, Fraction]:
    """W = sum_P C(sup(P), k) * a_P^2 over integer a_P, and L = W / (|terms| * sum_P a_P^2)."""
    squares = [a * a for a in coefs]
    weighted = sum(map(mul, _binomials(sizes, k), squares))
    return weighted, Fraction(weighted, len(squares) * sum(squares))


def _trace_B_and_L(f: SparsePoly, k: int) -> tuple[Fraction, Fraction]:
    """Tr(B) = W / D^2 and L(f), from f's coefficients cleared by their common denominator D."""
    clear, coefs = f.cleared
    weighted, l_bound = _closed_form(f.term_view.sizes, coefs, k)
    return Fraction(weighted, clear * clear), l_bound


def trace_B(f: SparsePoly, k: int) -> Fraction:
    """Tr(B) = sum over terms of C(sup(P), k) * a_P^2 (scaled coefficients).

    Summed in integers, with the common denominator cleared: one division by its square.
    """
    _require_scaled(f, "trace_B")
    return _trace_B_and_L(f, k)[0]


def count_N(
    p: ExponentVector,
    q: ExponentVector,
    r: ExponentVector,
    k: int,
    monomials: Iterable[ExponentVector] | dict | frozenset | set,
) -> int:
    """Number of 0/1 row indices I of weight k compatible with (P, Q, R).

    Compatible means: I fits under both P and Q componentwise, and there is
    a row index J with P - I = R - J.  The count is zero unless Q+R-P is a
    monomial, P-R has entries in {-1,0,1} with equally many +1 and -1, and
    every +1 position of P-R is positive in min(P,Q); otherwise it equals
    C(zeros, k - ones) where ones counts the +1 entries of P-R and zeros
    the positions where P-R is 0 and min(P,Q) is positive.
    """
    if not isinstance(monomials, (set, frozenset, dict)):
        monomials = frozenset(monomials)
    qrp = tuple(qi + ri - pi for pi, qi, ri in zip(p, q, r))
    if any(x < 0 for x in qrp) or qrp not in monomials:
        return 0
    ones = 0
    negs = 0
    zeros = 0
    for pi, qi, ri in zip(p, q, r):
        d = pi - ri
        if d == 0:
            if pi > 0 and qi > 0:
                zeros += 1
        elif d == 1:
            if qi == 0:
                return 0
            ones += 1
        elif d == -1:
            negs += 1
        else:
            return 0
    if ones != negs:
        return 0
    return binom(zeros, k - ones)


def _check_work(work: int, budget: int) -> None:
    """The one budget rule of the Tr(B^2) routes: ``work`` past ``budget`` is refused."""
    if work > budget:
        raise ResourceLimitError("triple-sum", budget, work)


def check_pair_budget(f: SparsePoly, budget: int = DEFAULT_TRIPLE_BUDGET) -> int:
    """The ordered term pairs of equal total degree, refused past ``budget``.

    The first cap of both Tr(B^2) routes, read off f's term view: a caller
    that builds more before the trace can check it first.
    """
    pairs = f.term_view.pairs
    _check_work(pairs, budget)
    return pairs


def trace_B2(
    f: SparsePoly,
    k: int,
    *,
    budget: int = DEFAULT_TRIPLE_BUDGET,
    matrix: DerivMatrix | None = None,
) -> Fraction:
    """Tr(B^2), from the explicit Gram matrix when M is small, else grouped.

    M has nnz(M) = sum over terms P of C(sup(P), k) entries, known before
    any work.  When that is at most the number of ordered term pairs of
    equal total degree, Tr(B^2) = ||M^T M||_F^2 = ||M M^T||_F^2 is summed
    in integers over whichever side of M costs less: sum_I |row_I|^2 or
    sum_g |col_g|^2.  A row has at most s entries, so that is at most
    nnz * s <= s^3.  Otherwise, or when that cost exceeds ``budget``, the
    pair-difference sum of :func:`_grouped_B2` runs; it is polynomial in s
    whatever the size of M.  Both give the same exact value.

    ``matrix``, when given, must be f's order-k derivative matrix
    (``build_matrix(f, range(k, k + 1))``); the Gram route then takes M
    as its rows with 0/1 keys (:func:`_zero_one_rows`) instead of
    assembling M.  Without it M is assembled here, under no cap but its
    own size.

    ``budget`` caps the equal-degree term pairs first
    (:func:`check_pair_budget`), as the grouped sum does; a Gram cost past
    it falls back to the grouped sum, and so to its cap on the bucket
    pairings.
    """
    _require_scaled(f, "trace_B2")
    pairs = check_pair_budget(f, budget)
    nnz = sum(_binomials(f.term_view.sizes, k))
    if nnz <= pairs:
        value = _gram_B2(f, k, nnz, budget, matrix)
        if value is not None:
            return value
    return _grouped_B2(f, k, budget)


def _gram_B2(
    f: SparsePoly, k: int, nnz: int, budget: int, order_k: DerivMatrix | None = None
) -> Fraction | None:
    """Tr(B^2) as the squared Frobenius norm of M's Gram matrix on its cheaper side.

    M is the 0/1-key rows of ``order_k``, f's order-k derivative matrix,
    when given; else it is assembled, ``nnz`` (its entry count) bounding
    its rows and columns.  None when that side's cost, sum_L |L|^2 over
    its lines L, exceeds ``budget``.
    """
    if order_k is None:
        matrix = _trace_matrix(f, k, max_rows=nnz, max_cols=nnz)
    else:
        matrix = _zero_one_rows(order_k, f)
    lines, cost = _cheaper_side(matrix)
    if cost > budget:
        return None
    return Fraction(_frobenius_square(*_gram(lines)), matrix.clear_factor**4)


def _trace_matrix(scaled: SparsePoly, k: int, *, max_rows: int, max_cols: int) -> DerivMatrix:
    """M: a row per k-subset I of some term's support, a_P at column P - I."""
    return assemble(
        scaled,
        lambda alpha, units: packed_subsets(list(compress(units, alpha)), k),
        max_rows=max_rows,
        max_cols=max_cols,
    )


def _zero_one_rows(matrix: DerivMatrix, scaled: SparsePoly) -> DerivMatrix:
    """M from the order-k derivative matrix of ``scaled``: its rows whose key has no slot >= 2.

    The order-k rows under a term x^alpha are every beta <= alpha of
    weight k; the 0/1 ones are the k-subsets of its support, M's rows,
    with the same entries (both are cleared by ``cleared`` over all
    terms and packed at the same slot width).  A multilinear f has no
    other rows, so M is the matrix itself, and shares its column view.
    """
    width = slot_width(scaled)
    if width <= 1:
        return matrix
    # Bits 1..width-1 of every slot: the repunit of the slots times 2^width - 2.
    slots = ((1 << width * len(scaled.vars)) - 1) // ((1 << width) - 1)
    high = slots * ((1 << width) - 2)
    keep = [i for i, beta in enumerate(matrix.rows) if not beta & high]
    if len(keep) == matrix.nrows:
        return matrix
    # Tuples from lists: see exact.assemble.
    entries = tuple([matrix.entries[i] for i in keep])
    ncols = len(set(chain.from_iterable(entries)))
    rows = tuple([matrix.rows[i] for i in keep])
    return DerivMatrix(rows, entries, ncols, matrix.clear_factor)


def _cheaper_side(matrix: DerivMatrix) -> tuple[Iterable[dict[int, int]], int]:
    """M's rows, or its columns {row key: value} if fewer entry pairs; and that count.

    Either side's lines L have the same Gram sum of squares; a side costs sum_L |L|^2.
    """
    row_sizes = list(map(len, matrix.entries))
    row_cost = sum(map(mul, row_sizes, row_sizes))
    col_cost = sum(c * c for c in Counter(chain.from_iterable(matrix.entries)).values())
    if row_cost <= col_cost:
        return matrix.entries, row_cost
    return matrix.columns().values(), col_cost


def _gram(lines: Iterable[dict[int, int]]) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
    """The Gram matrix G = sum over lines L of L^T L: its diagonal and strict upper part.

    ``diagonal[j]`` and ``upper[j1][j2]`` (j1 < j2) hold sum_L L[j1] * L[j2];
    a line of c entries costs c(c+1)/2 updates.
    """
    diagonal: dict[int, int] = defaultdict(int)
    upper: dict[int, dict[int, int]] = defaultdict(dict)
    for line in lines:
        if len(line) == 1:
            ((j, v),) = line.items()
            diagonal[j] += v * v
            continue
        items = sorted(line.items())
        for i, (j1, v1) in enumerate(items, 1):
            diagonal[j1] += v1 * v1
            row = upper[j1]
            for j2, v2 in items[i:]:
                row[j2] = row.get(j2, 0) + v1 * v2
    return diagonal, upper


def _frobenius_square(diagonal: dict[int, int], upper: dict[int, dict[int, int]]) -> int:
    """||G||_F^2 of the symmetric G given by :func:`_gram`."""
    off = sum(g * g for row in upper.values() for g in row.values())
    return sum(d * d for d in diagonal.values()) + 2 * off


def _grouped_B2(f: SparsePoly, k: int, budget: int) -> Fraction:
    """Tr(B^2): the triple sum of :func:`count_N`, grouped by pair difference.

    A triple (P, Q, R) contributes only when D = R - P is a {-1,0,1} vector
    with as many +1 as -1 entries and S = Q + D is a term (S >= 0 already
    forces Q_i >= 1 where D_i = -1).  N(P, Q, R) is then
    C(popcount(m_P & m_Q), k - #{D_i = -1}) with m_X = supp(X) minus supp(D).
    Pass one visits the ordered pairs (P, R) of equal total degree and adds
    a_P * a_R into w_D[m_P]; pass two sums w_D[m1] * w_D[m2] times that
    binomial over the masks of each bucket.  Buckets with more than k
    entries -1 are never built, as their binomial is zero.

    Pass one works on level masks L_j(X) = {i : X_i >= j}, j >= 1, packed
    into one integer per term at a stride of n+1 bits.  R - P is a
    {-1,0,1} vector exactly when L_{j+1}(R) is inside L_j(P) and L_{j+1}(P)
    inside L_j(R) for every j; then the +1 positions are the union over j of
    L_j(R) minus L_j(P), a union of disjoint sets, and likewise the -1
    positions.  So a pair costs a few word operations whatever n is.  Pass
    two reads its binomials from the rows C(z, k - j), z = 0..n, built
    once per call.

    Coefficients are scaled to integers by their common denominator L and
    the integer total is divided by L^4 once.  ``budget`` caps each pass:
    the ordered pairs visited (at most s^2) and the bucket pairings
    sum_D |w_D|^2 (at most s^3).
    """
    n = len(f.vars)
    stride = n + 1
    # Level j sits at bits (j-1)*stride .. (j-1)*stride + n-1.  The pieces
    # of a union over levels are disjoint, so their sum is their union, and
    # as 2^stride = 1 modulo `fold` the sum is the packed value mod `fold`
    # (exact: the union is below 2^n < fold).
    fold = (1 << stride) - 1
    view = f.term_view
    clear, coefs = f.cleared
    _check_work(view.pairs, budget)
    by_degree: dict[int, list[tuple[int, int, int]]] = {}
    for alpha, degree, a in zip(view.exps, view.degrees, coefs):
        # Bit i at levels 1..e_i: a run of e_i ones at the stride, shifted by i.
        levels = sum(((1 << e * stride) - 1) // fold << i for i, e in enumerate(alpha))
        by_degree.setdefault(degree, []).append((levels, levels & fold, a))

    # Equal total degree and steps in {-1,0,1} make the +1 and -1 counts equal.
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    for group in by_degree.values():
        for p_levels, p_mask, a_p in group:
            p_above = p_levels >> stride
            for r_levels, _, a_r in group:
                if (r_levels >> stride) & ~p_levels or p_above & ~r_levels:
                    continue
                down = (p_levels & ~r_levels) % fold
                if down.bit_count() <= k:
                    up = (r_levels & ~p_levels) % fold
                    weights = buckets.setdefault((up, down), {})
                    m = p_mask & ~(up | down)
                    weights[m] = weights.get(m, 0) + a_p * a_r

    _check_work(sum(len(weights) ** 2 for weights in buckets.values()), budget)
    n_counts = [[binom(z, k - j) for z in range(n + 1)] for j in range(min(k, n) + 1)]
    total = 0
    for (_, down), weights in buckets.items():
        n_count = n_counts[down.bit_count()]
        items = list(weights.items())
        for m1, w1 in items:
            inner = 0
            for m2, w2 in items:
                inner += w2 * n_count[(m1 & m2).bit_count()]
            total += w1 * inner
    return Fraction(total, clear**4)


def proxy_rank(f: SparsePoly, k: int) -> Fraction:
    """The rank lower bound Tr(B)^2 / Tr(B^2) of :func:`proxy_from_traces`."""
    return trace_stats(f, k).proxy


def trace_stats(
    f: SparsePoly,
    k: int,
    *,
    budget: int = DEFAULT_TRIPLE_BUDGET,
    matrix: DerivMatrix | None = None,
) -> TraceStats:
    """Compute Tr(B), Tr(B^2) and the proxy rank for f at order k.

    ``matrix``, when given, is f's order-k derivative matrix, from which
    :func:`trace_B2` takes M.
    """
    return _stats_and_L(f, k, budget, matrix)[0]


def _stats_and_L(f: SparsePoly, k: int, budget: int, matrix: DerivMatrix | None):
    """:func:`trace_stats`, and :func:`closed_form_L` of the scaled coefficients: Tr(B) and L
    share their sum over the terms, so it is taken once."""
    scaled = f if f.basis == SCALED else to_scaled(f)
    _require_scaled(scaled, "trace_B")
    tr_b, l_scaled = _trace_B_and_L(scaled, k)
    tr_b2 = trace_B2(scaled, k, budget=budget, matrix=matrix)
    return TraceStats(k, len(scaled.terms), tr_b, tr_b2), l_scaled


def closed_form_L(f: SparsePoly, k: int) -> Fraction:
    """The closed-form lower bound L(f) on the order-k derivative dimension.

    L(f) = (sum_P C(sup(P), k) a_P^2) / (|terms| * sum_P a_P^2), using the
    coefficients of f as given.  The bound is the one dominated by the
    proxy rank when the coefficients are scaled-basis; with coefficients of
    equal absolute value it reduces to (sum_P C(sup(P), k)) / |terms|^2.
    """
    if f.is_zero:
        raise ValueError("closed_form_L is undefined for the zero polynomial")
    return _closed_form(f.term_view.sizes, f.cleared[1], k)[1]


@dataclass(frozen=True)
class ExplicitOracle:
    """Explicit materialization of M (0/1 row indices) and B = M^T M.

    The cross-check oracle for the closed-form traces: everything here is
    computed directly from the matrices.
    """

    matrix: DerivMatrix
    stats: TraceStats
    rank_b: int


def explicit_B_oracle(
    f: SparsePoly,
    k: int,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_cols: int = DEFAULT_MAX_COLS,
    budget: int = DEFAULT_ELIMINATION_BUDGET,
) -> ExplicitOracle:
    """Materialize M restricted to 0/1 multi-indices of weight k, and B.

    The rows of a term x^alpha are the k-subsets of its support; rows whose
    derivative vanishes never appear (they contribute nothing to the traces
    or the rank).  M is refused by the rows and columns it builds, as in
    :func:`assemble`.  B's traces are computed directly, B kept sparse,
    summed over the pairs of entries within each row of M.  rank(B) is
    rank(M), whose elimination ``budget`` caps.
    """
    if f.is_zero:
        raise ValueError("oracle is undefined for the zero polynomial")
    scaled = f if f.basis == SCALED else to_scaled(f)
    matrix = _trace_matrix(scaled, k, max_rows=max_rows, max_cols=max_cols)
    diagonal, upper = _gram(matrix.entries)
    denom = matrix.clear_factor
    tr_b = Fraction(sum(diagonal.values()), denom**2)
    tr_b2 = Fraction(_frobenius_square(diagonal, upper), denom**4)
    rank_b = sparse_int_rank(list(matrix.entries), budget=budget)  # rank(M^T M) = rank(M)
    return ExplicitOracle(matrix, TraceStats(k, len(scaled.terms), tr_b, tr_b2), rank_b)


def semirandom_L(
    support: Sequence[ExponentVector],
    coefs: Sequence[Fraction | int],
    k: int,
) -> Fraction:
    """L(f) for a fixed support with explicitly given scaled coefficients.

    The sums are taken in integers: the coefficients are scaled by their
    common denominator, whose square cancels from the ratio.
    """
    return _closed_form(map(support_size, support), cleared(coefs)[1], k)[1]


def semirandom_estimate(
    support: Sequence[ExponentVector],
    k: int,
    samples: int,
    rng_seed: int = 0,
) -> Fraction:
    """Exact mean of L(f) over random coefficient draws on a fixed support.

    Coefficients are i.i.d. uniform nonzero integers; the expectation of
    L(f) is (sum_P C(sup(P), k)) / |support|^2 for any atomless-at-zero
    i.i.d. draw, which the sample mean approaches.
    """
    if not support:
        raise ValueError("support must be nonempty")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(set(support)) != len(support):
        raise ValueError("support monomials must be distinct")
    rng = random.Random(rng_seed)
    total = Fraction(0)
    for _ in range(samples):
        coefs = []
        for _ in support:
            c = 0
            while c == 0:
                c = rng.randint(-COEF_BOUND, COEF_BOUND)
            coefs.append(c)
        total += semirandom_L(support, coefs, k)
    return total / samples


def semirandom_expectation(support: Sequence[ExponentVector], k: int) -> Fraction:
    """The exact expectation of L(f): sum_P C(sup(P), k) / |support|^2."""
    s = len(support)
    return Fraction(sum(_binomials(map(support_size, support), k)), s * s)
