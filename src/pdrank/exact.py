"""Exact derivative-space dimensions via explicit matrices and rational rank.

This is the trusted oracle of the package: derivative matrices are
materialized with exact integer entries (a single common denominator is
cleared) and keyed by packed monomials: each exponent vector is one int,
whose int order is the lex order of the vectors.  Ranks are computed
exactly, with deterministic pivoting.  A rank takes every singleton pivot
first (a column or a row with one entry, O(1) work per entry removed),
then runs fraction-free Bareiss elimination on the core that is left.
Derivative matrices are very sparse, and the core is usually empty or a
few rows.  Everything here is exact and deterministic; sizes are guarded
by explicit caps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Callable, Iterable

from .combinat import cleared, packed_box, packed_sub_indices
from .errors import ResourceLimitError
from .polyio import (
    SCALED,
    ExponentVector,
    SparsePoly,
    Term,
    exps_sub,
    subsumes,
    to_scaled,
)

DEFAULT_MAX_ROWS = 20_000
DEFAULT_MAX_COLS = 20_000
DEFAULT_ELIMINATION_BUDGET = 10**8


@dataclass(frozen=True)
class DerivMatrix:
    """Integer matrix of derivative coefficients, keyed by packed monomials.

    A monomial x^e is packed into one int: each exponent gets a slot as
    wide as the bit length of the polynomial's largest exponent, with x1
    in the most significant slot, so int order is the lex order of the
    exponent vectors.  ``rows`` holds the packed differentiation
    multi-indices, ascending; ``entries`` holds one {packed result
    monomial: value} dict per row, filled in term order; ``ncols`` counts
    the distinct result monomials.  Entries are the scaled-basis
    coefficients times ``clear_factor`` (the lcm of their denominators), so
    the stored matrix is integral.  Rows and columns are never identically
    zero.  Treat ``entries`` as read-only.
    """

    rows: tuple[int, ...]
    entries: tuple[dict[int, int], ...]
    ncols: int
    clear_factor: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def distinct_rows(self) -> set[frozenset[tuple[int, int]]]:
        """The distinct rows, each the frozenset of its (column key, value) entries."""
        return set(map(frozenset, map(dict.items, self.entries)))

    def columns(self) -> dict[int, dict[int, int]]:
        """The columns: {column key: {row key: value}}, each filled in ascending row order.

        Built on the first call and kept, so every caller of one matrix
        shares one view; treat it as read-only, like ``entries``.
        """
        return self._column_view

    @cached_property
    def _column_view(self) -> dict[int, dict[int, int]]:
        cols: dict[int, dict[int, int]] = defaultdict(dict)
        for beta, row in zip(self.rows, self.entries):
            for gamma, v in row.items():
                cols[gamma][beta] = v
        cols.default_factory = None  # a missing key raises, as in a plain dict
        return cols


def derivative(f: SparsePoly, beta: ExponentVector) -> SparsePoly:
    """Differentiate a scaled-basis polynomial: exponent subtraction.

    Terms not divisible by the multi-index vanish; the result may be zero.
    """
    if f.basis != SCALED:
        raise ValueError("derivative operates on scaled-basis polynomials")
    if len(beta) != len(f.vars):
        raise ValueError("multi-index length does not match variable count")
    if any(b < 0 for b in beta):
        raise ValueError("negative differentiation order")
    terms = tuple(
        Term(t.coef, exps_sub(t.exps, beta)) for t in f.terms if subsumes(beta, t.exps)
    )
    return SparsePoly(f.vars, terms, SCALED)


def slot_width(scaled: SparsePoly) -> int:
    """The bit width of one exponent slot in the packed keys of f's derivative matrices."""
    return max(chain.from_iterable(t.exps for t in scaled.terms), default=0).bit_length()


def assemble(
    scaled: SparsePoly,
    sub_indices: Callable[[ExponentVector, list[int]], Iterable[int]],
    *,
    max_rows: int,
    max_cols: int,
) -> DerivMatrix:
    """The derivative matrix whose rows are the keys ``sub_indices`` gives.

    One pass over the terms: a term a * x^alpha (a cleared to an integer)
    puts a at column alpha - beta of row beta for each packed beta in
    ``sub_indices(alpha, units)``, where ``units[i]`` is variable i's slot
    unit (see :class:`DerivMatrix`); each beta must satisfy beta <= alpha.
    Since no slot borrows, the column key is packed(alpha) - beta.  The
    enumerators of :mod:`pdrank.combinat` draw each beta as a sum of units
    over alpha's support in C-level ``combinations`` or ``product``, so a
    nonzero entry costs a few dict and set operations whatever the number
    of variables, plus sorting the row keys.  Both caps are checked as each
    row or column is added, so ``actual`` is one past the cap.  A column
    past the cap is left out and the walk goes on, still counting rows: if
    the rows overflow too, ``rows`` is reported, else ``cols`` once the
    walk ends.  So the walk never holds more than the caps admit.
    """
    clear, coefs = cleared(t.coef for t in scaled.terms)
    width = slot_width(scaled)
    units = [1 << width * i for i in reversed(range(len(scaled.vars)))]
    by_row: dict[int, dict[int, int]] = {}
    col_set: set[int] = set()
    cols_over = False
    for t, a in zip(scaled.terms, coefs):
        top = sum(map(mul, t.exps, units))
        for beta in sub_indices(t.exps, units):
            row = by_row.get(beta)
            if row is None:
                if len(by_row) >= max_rows:
                    raise ResourceLimitError("rows", max_rows, len(by_row) + 1)
                row = by_row[beta] = {}
            gamma = top - beta
            if gamma not in col_set:
                if len(col_set) >= max_cols:
                    cols_over = True
                    continue
                col_set.add(gamma)
            row[gamma] = a
    if cols_over:
        raise ResourceLimitError("cols", max_cols, max_cols + 1)
    rows = sorted(by_row)
    # Tuples from lists, of known size.  CPython builds a tuple from an
    # iterator by resizing a 10-item guess; freed, such a tuple of 11 to 20
    # items joins a free list that little else draws on, so a long-lived
    # process's memory would grow with every matrix it built.
    entries = tuple([by_row[beta] for beta in rows])
    return DerivMatrix(tuple(rows), entries, len(col_set), clear)


def build_matrix(
    f: SparsePoly,
    orders: range,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_cols: int = DEFAULT_MAX_COLS,
) -> DerivMatrix:
    """Materialize the derivative matrix of the orders in ``orders``.

    ``orders`` is a range of naturals, step 1: ``range(k, k + 1)`` for
    order k, ``range(deg + 1)`` for all orders and ``range(1, deg)`` for
    the interior ones.  Rows are exactly the multi-indices of those orders
    with a nonzero derivative (those dividing some term), so no zero row or
    column is ever stored; an empty window, or one past the degree, gives
    an empty matrix.  A window that holds every order 1..deg-1 draws each
    term's whole box of sub-indices in one ``product``
    (:func:`packed_box`), leaving out beta = 0 and beta = alpha when their
    orders fall outside it; any other window draws each term's sub-indices
    order by order (:func:`packed_sub_indices`).  Either way each drawn key
    is one nonzero entry, at a cost that does not grow with the number of
    variables (see :func:`assemble`).
    """
    if f.is_zero:
        raise ValueError("derivative matrix of the zero polynomial")
    if orders.start < 0 or orders.step != 1:
        raise ValueError(f"orders must be a range of naturals with step 1, got {orders!r}")
    scaled = f if f.basis == SCALED else to_scaled(f)
    if orders.start <= 1 and orders.stop >= scaled.degree:
        # Every order 1..deg-1 is in the window: only beta = 0 can fall
        # below it, and only beta = alpha above it.
        def sub_indices(alpha, units):
            return packed_box(
                alpha, units, drop_zero=0 not in orders, drop_top=sum(alpha) not in orders
            )

    else:

        def sub_indices(alpha, units):
            return packed_sub_indices(alpha, units, orders)

    return assemble(scaled, sub_indices, max_rows=max_rows, max_cols=max_cols)


def _peel_singletons(work: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Pivot on singleton columns, then singleton rows, of ``work`` (edited in place).

    A column with one row in it makes that row independent of the others:
    the row adds 1 to the rank and goes, which may leave more columns with
    one row.  A row c*e_j adds 1 to the rank and goes, and column j is
    deleted from every other row, which is what eliminating against it
    does; a row left with one entry is next, a row left empty goes.  Row
    pivots never leave a column with one row (only rows that held column j
    change), so one pass of each kind finishes the peel.  Each entry is
    removed at most once: the work is O(nnz).  Returns the rank found and
    the rows left (the core), in their original order.
    """
    where: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for j in row:
            where.setdefault(j, set()).add(i)
    alive = [bool(row) for row in work]
    rank = 0
    singles = [j for j, hits in where.items() if len(hits) == 1]
    while singles:
        hits = where[singles.pop()]
        if hits:  # else its row went with another singleton column
            (i,) = hits
            alive[i] = False
            rank += 1
            for j in work[i]:
                hits = where[j]
                hits.discard(i)
                if len(hits) == 1:
                    singles.append(j)
    singles = [i for i, row in enumerate(work) if alive[i] and len(row) == 1]
    while singles:
        i = singles.pop()
        if alive[i]:  # else emptied by another pivot on its column
            (j,) = work[i]
            rank += 1
            for r in where.pop(j):  # row i included: it is left empty
                row = work[r]
                del row[j]
                if not row:
                    alive[r] = False
                elif len(row) == 1:
                    singles.append(r)
    return rank, [row for row, live in zip(work, alive) if live]


def sparse_int_rank(
    rows: list[dict[int, int]],
    *,
    budget: int = DEFAULT_ELIMINATION_BUDGET,
) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows.

    First every singleton column and row is pivoted on, in O(nnz) work
    (:func:`_peel_singletons`).  Derivative matrices are full of them: a
    column gamma is hit only by the terms alpha >= gamma, so most
    high-order columns hold one entry.  What remains, the core, goes to
    fraction-free Bareiss elimination.  Its pivoting is deterministic:
    columns are scanned in ascending index order and the pivot is the
    first remaining row with a nonzero entry in the current column.

    Bareiss multiplies a row the pivot column misses by p/prev at each
    pivot p.  These factors telescope, so each row instead keeps the pivot
    it was last brought up to (its level) and is touched only when used:
    a row at level L hit by pivot p becomes (p*row - m*pivot_row) / L, and
    a row becoming the pivot row is brought up to the last pivot prev by
    row*prev / L.  Both equal the plain Bareiss rows, minors of the
    matrix, so every division is exact.  Every entry so updated counts
    against ``budget``; the peel does not.  The input rows are not
    modified.
    """
    rank, work = _peel_singletons([dict(r) for r in rows])
    nrows = len(work)
    level = [1] * nrows
    r = 0
    prev = 1
    ops = 0
    col_order = sorted({j for row in work for j in row})
    for col in col_order:
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if work[i].get(col):
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        level[r], level[piv] = level[piv], level[r]
        prow = work[r]
        if level[r] != prev:
            lv = level[r]
            for j in prow:
                prow[j] = prow[j] * prev // lv
            ops += len(prow)
        p = prow[col]
        for i in range(r + 1, nrows):
            row = work[i]
            m = row.pop(col, 0)
            if m:
                lv = level[i]
                new: dict[int, int] = {}
                for j, v in row.items():
                    w = p * v - m * prow.get(j, 0)
                    if w:
                        new[j] = w // lv
                for j, pv in prow.items():
                    if j != col and j not in row:
                        new[j] = (-m * pv) // lv
                ops += len(row) + len(prow)
                work[i] = new
                level[i] = p
        if ops > budget:
            raise ResourceLimitError("elimination-budget", budget, ops)
        prev = p
        rank += 1
        r += 1
    return rank


def rank_exact(
    matrix: DerivMatrix, *, budget: int = DEFAULT_ELIMINATION_BUDGET
) -> int:
    """Exact rank of a derivative matrix over the rationals."""
    return sparse_int_rank(list(matrix.entries), budget=budget)


def dim_partials(
    f: SparsePoly,
    orders: range,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_cols: int = DEFAULT_MAX_COLS,
    budget: int = DEFAULT_ELIMINATION_BUDGET,
) -> int:
    """Dimension of the span of f's partial derivatives of the orders in ``orders``.

    ``orders`` is a range as :func:`build_matrix` takes it.  The zero
    polynomial spans nothing: the result is 0 (callers that need to
    distinguish this case should test ``f.is_zero``), as it is for an
    empty window or one past the degree.  All orders, ``range(deg + 1)``,
    include order 0 (f itself) and the top order (constants).
    """
    if f.is_zero:
        return 0
    matrix = build_matrix(f, orders, max_rows=max_rows, max_cols=max_cols)
    return rank_exact(matrix, budget=budget)
