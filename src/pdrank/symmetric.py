"""Elementary symmetric polynomials: where the trace bound collapses.

For Sym_{d,n} at order k the derivative matrix restricted to 0/1
multi-indices is the disjointness matrix (rows: k-subsets, columns:
(d-k)-subsets, entry 1 iff disjoint), which has full rank
min(C(n,k), C(n,d-k)).  The Gram matrix B has closed-form entries
B_{I,J} = C(n - |I u J|, d - k), giving closed forms for both traces:

    Tr(B)   = C(n-k, d-k) * C(n, k)
    Tr(B^2) = C(n,k) sum_{t=0}^{k} C(k,t) C(n-k, k-t) C(n-2k+t, d-k)^2

(the t-th summand groups index pairs with |I n J| = t, so |I u J| = 2k-t;
this grouping is validated against the generic triple-sum oracle in the
tests).  The proxy rank v = Tr(B)^2/Tr(B^2) stays bounded while the true
rank u grows, and the series helpers below tabulate that gap exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Iterable, NamedTuple, Sequence

from .combinat import binom
from .errors import InvariantViolation, ResourceLimitError
from .exact import sparse_int_rank
from .polyio import SparsePoly
from .trace import proxy_from_traces

TERM_CAP = 100_000
CROSS_CHECK_CELLS = 250_000


class SymGapPoint(NamedTuple):
    """One point of the gap series: exact rank u vs. proxy v and its bound."""

    n: int
    d: int
    k: int
    u: int
    v: Fraction
    upper_v: Fraction
    ratio: Fraction


def sym_poly(n: int, d: int) -> SparsePoly:
    """Sym_{d,n}: the sum of all C(n,d) multilinear degree-d monomials, at most ``TERM_CAP``."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if binom(n, d) > TERM_CAP:
        raise ResourceLimitError("terms", TERM_CAP, binom(n, d))
    variables = [f"x{i}" for i in range(1, n + 1)]
    items = []
    for subset in combinations(range(n), d):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        items.append((tuple(exps), 1))
    return SparsePoly.from_terms(variables, items)


def disjointness_matrix(n: int, d: int, k: int) -> list[dict[int, int]]:
    """Rows: k-subsets I; columns: (d-k)-subsets J; entry 1 iff disjoint."""
    col_subsets = list(combinations(range(n), d - k))
    rows = []
    for i_subset in combinations(range(n), k):
        i_set = set(i_subset)
        rows.append(
            {j: 1 for j, c in enumerate(col_subsets) if not i_set.intersection(c)}
        )
    return rows


def _check_range(n: int, d: int, k: int) -> None:
    if not (0 <= k <= d <= n):
        raise ValueError("need 0 <= k <= d <= n")


def _exact_dim(n: int, d: int, k: int, rows: int) -> int:
    """min(C(n, k), C(n, d-k)), given rows = C(n, k) and 0 <= k <= d <= n."""
    return min(rows, comb(n, d - k))


def sym_exact_dim(n: int, d: int, k: int) -> int:
    """dim of the order-k derivative span of Sym_{d,n}: min(C(n,k), C(n,d-k)).

    The disjointness matrix has full rank, which the closed form relies on;
    when the matrix has at most ``CROSS_CHECK_CELLS`` cells it is
    materialized and its exact rank compared.
    """
    _check_range(n, d, k)
    value = _exact_dim(n, d, k, comb(n, k))
    if binom(n, k) * binom(n, d - k) <= CROSS_CHECK_CELLS:
        rank = sparse_int_rank(disjointness_matrix(n, d, k))
        if rank != value:
            raise InvariantViolation(
                f"disjointness rank {rank} != closed form {value} for (n,d,k)=({n},{d},{k})"
            )
    return value


def _binoms(n: int, d: int, k: int) -> tuple[int, int, int, int]:
    """The integers the trace closed forms of (n, d, k) share.

    Returns C(n, k), the number of rows I; C(n-k, d-k), every diagonal
    entry B_II; and, for one row I, the sum of B_IJ^2 over the rows J
    grouped by their overlap t = |I n J|,

        sum_t C(k, t) C(n-k, k-t) C(n-2k+t, d-k)^2,

    with its first term, the rows J disjoint from I when n >= 2k.  Every
    row has the same sum, so Tr(B^2) is C(n, k) times it.  A t below
    2k - n has no rows J (C(n-k, k-t) = 0), so t starts at max(0, 2k - n)
    and every binomial has arguments >= 0.  A gap point reads it once.

    ``math.comb`` rather than ``binom``: with 0 <= k <= d <= n and that t,
    no argument is negative, so binom's checks would only cost time.
    """
    _check_range(n, d, k)
    sums = [
        comb(k, t) * comb(n - k, k - t) * comb(n - 2 * k + t, d - k) ** 2
        for t in range(max(0, 2 * k - n), k + 1)
    ]
    return comb(n, k), comb(n - k, d - k), sum(sums), sums[0]


def sym_trace_B(n: int, d: int, k: int) -> int:
    """Tr(B) = C(n-k, d-k) * C(n, k) (every diagonal entry is C(n-k, d-k))."""
    rows, diag, _, _ = _binoms(n, d, k)
    return diag * rows


def sym_trace_B2(n: int, d: int, k: int) -> int:
    """Tr(B^2): C(n, k) rows, each with the overlap-grouped sum of ``_binoms``."""
    rows, _, row_sum, _ = _binoms(n, d, k)
    return rows * row_sum


def sym_proxy(n: int, d: int, k: int) -> Fraction:
    """v = Tr(B)^2 / Tr(B^2) from the closed forms."""
    return proxy_from_traces(sym_trace_B(n, d, k), sym_trace_B2(n, d, k))


def sym_upper_v(n: int, d: int, k: int) -> Fraction:
    """Closed-form upper bound on the proxy from the disjoint-pair subsum.

    Tr(B)^2 over the pairs (I, J) with I, J disjoint, C(n, k) cancelled.
    Requires n >= d + k so the subsum is nonempty.
    """
    if not 0 <= k <= d <= n - k:
        raise ValueError("upper bound undefined: need n >= d + k and n >= 2k")
    return Fraction(*_gap_ints(n, d, k)[2])


def _gap_ints(
    n: int, d: int, k: int
) -> tuple[int, tuple[int, int], tuple[int, int], tuple[int, int]]:
    """u, v, upper_v and ratio of a gap point, each fraction a reduced (num, den) pair.

    One read of ``_binoms``; needs 0 <= k <= d <= n - k, so that the
    disjoint rows exist.  With C(n, k) cancelled, v = diag^2 C(n, k) / row_sum
    is ``sym_proxy``'s Tr(B)^2 / Tr(B^2), upper_v = diag^2 C(n, k) / disjoint
    is ``sym_upper_v``'s, and u is ``sym_exact_dim``'s.  Each pair is reduced
    by one gcd: ratio = v / u by gcd(v_num, u), as v_num and v_den are coprime.
    """
    rows, diag, row_sum, disjoint = _binoms(n, d, k)
    u = _exact_dim(n, d, k, rows)
    top = diag * diag * rows
    g = gcd(top, row_sum)
    v_num, v_den = top // g, row_sum // g
    h = gcd(top, disjoint)
    g = gcd(v_num, u)
    return u, (v_num, v_den), (top // h, disjoint // h), (v_num // g, v_den * (u // g))


def _gap_point(n: int, d: int, k: int) -> SymGapPoint:
    """The point of (n, d, k): the pairs of ``_gap_ints`` as Fractions."""
    u, v, upper_v, ratio = _gap_ints(n, d, k)
    return SymGapPoint(n, d, k, u, Fraction(*v), Fraction(*upper_v), Fraction(*ratio))


def _fixed_shapes(d: int, k: int, n_values: Iterable[int]) -> list[tuple[int, int, int]]:
    """The (n, d, k) of a gap series at fixed (d, k): needs 1 <= k < d and n >= d + k."""
    if not (1 <= k < d):
        raise ValueError("need 1 <= k < d")
    shapes = []
    for n in n_values:
        if not d < n:
            raise ValueError(f"need d < n (got d={d}, n={n})")
        if n < d + k:
            raise ValueError(f"need n >= d + k for the upper bound (got n={n})")
        shapes.append((n, d, k))
    return shapes


def _scaled_shapes(
    kp: int, dp: int, np_: int, m_values: Iterable[int]
) -> list[tuple[int, int, int]]:
    """The (n, d, k) = m * (n', d', min(k', d'-k')) of a scaled gap series.

    Needs 1 <= k' < d', 2d' < n' and m >= 1.
    """
    if not (1 <= kp < dp):
        raise ValueError("need 1 <= k' < d'")
    if not 2 * dp < np_:
        raise ValueError("need d' < n'/2")
    kp_eff = min(kp, dp - kp)
    shapes = []
    for m in m_values:
        if m < 1:
            raise ValueError("m must be >= 1")
        shapes.append((np_ * m, dp * m, kp_eff * m))
    return shapes


def sym_gap_series_fixed(d: int, k: int, n_values: Sequence[int]) -> list[SymGapPoint]:
    """Gap series at fixed (d, k) over a range of n; needs 1 <= k < d and n >= d + k."""
    return [_gap_point(*shape) for shape in _fixed_shapes(d, k, n_values)]


def sym_gap_series_scaled(
    kp: int, dp: int, np_: int, m_values: Sequence[int]
) -> list[SymGapPoint]:
    """Gap series along (n, d, k) = m * (n', d', k') with k' < d' < n'/2.

    Differentiation order and degree scale together; since the dimension at
    order k equals the dimension at order d-k, k' is normalized internally
    to min(k', d'-k') so that 2k' <= d'.
    """
    return [_gap_point(*shape) for shape in _scaled_shapes(kp, dp, np_, m_values)]
