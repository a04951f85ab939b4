"""Exact derivative matrices and rational rank, checked against naive oracles."""

import itertools
import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from operator import le, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrank import (
    DerivMatrix,
    ResourceLimitError,
    SparsePoly,
    build_matrix,
    derivative,
    dim_partials,
    parse_poly,
    rank_exact,
    sparse_int_rank,
    to_ordinary,
    to_scaled,
)
from pdrank import combinat, exact
from pdrank.combinat import (
    all_sub_indices,
    cleared,
    packed_box,
    packed_sub_indices,
    packed_subsets,
)
from pdrank.corpus import random_homogeneous_polys, random_polys
from pdrank.polyio import Graph, permute_vars, scale
from pdrank.reductions import graph_classes, graph_to_poly
from pdrank.trace import explicit_B_oracle


def ordinary_derivative(f: SparsePoly, beta) -> SparsePoly:
    """Whiteboard oracle: repeated single-variable differentiation, ordinary basis."""
    items = []
    for t in f.terms:
        coef = t.coef
        exps = list(t.exps)
        dead = False
        for i, b in enumerate(beta):
            for _ in range(b):
                if exps[i] == 0:
                    dead = True
                    break
                coef *= exps[i]
                exps[i] -= 1
            if dead:
                break
        if not dead:
            items.append((tuple(exps), coef))
    return SparsePoly.from_terms(f.vars, items)


def test_derivative_simple_cases():
    f = to_scaled(parse_poly("x1*x2"))
    d = derivative(f, (1, 0))
    assert d.coef_map() == {(0, 1): Fraction(1)}
    assert derivative(f, (0, 0)) == f


def test_derivative_matches_symbolic_oracle_on_power_term():
    f = parse_poly("x1^2*x2")
    got = to_ordinary(derivative(to_scaled(f), (2, 0)))
    assert got == ordinary_derivative(f, (2, 0))
    assert got.coef_map() == {(0, 1): Fraction(2)}  # d^2/dx1^2 (x1^2 x2) = 2 x2


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50)
def test_derivative_matches_symbolic_oracle_random(b1, b2, b3):
    f = parse_poly("3/2*x1^3*x2 - x2^2*x3 + 5*x1*x3^2 + 7")
    beta = (b1, b2, b3)
    got = to_ordinary(derivative(to_scaled(f), beta))
    assert got == ordinary_derivative(f, beta)


def test_derivative_requires_scaled_basis():
    with pytest.raises(ValueError):
        derivative(parse_poly("x1"), (1,))


@given(
    st.lists(
        st.one_of(
            st.integers(-(10**12), 10**12),
            st.fractions(max_denominator=10**6),
        ),
        max_size=12,
    )
)
@settings(max_examples=100)
def test_cleared_matches_fraction_arithmetic(coefs):
    """``cleared`` against the pairwise gcd lcm and exact ``Fraction`` products, ints included."""
    want = 1
    for c in coefs:
        den = Fraction(c).denominator
        want = want * den // math.gcd(want, den)
    clear, ints = cleared(iter(coefs))
    assert clear == want
    assert all(type(a) is int for a in ints)
    assert ints == [int(Fraction(c) * want) for c in coefs]
    assert [Fraction(a, clear) for a in ints] == [Fraction(c) for c in coefs]


def test_build_matrix_identity_pattern():
    # One bit per slot, x1 in the high bit: x2 packs to 1 and x1 to 2.
    m = build_matrix(parse_poly("x1*x2"), range(1, 2))
    assert m.rows == (1, 2)
    assert m.entries == ({2: 1}, {1: 1})
    assert m.ncols == 2


def test_build_matrix_monomial_all_orders_row_count():
    f = parse_poly("x1^2*x2^3")
    m = build_matrix(f, range(f.degree + 1))
    assert m.nrows == (2 + 1) * (3 + 1)


def test_build_matrix_three_rows_rank_three():
    f = parse_poly("x1*x2 + x3")
    m = build_matrix(f, range(1, 2))
    assert m.nrows == 3 and m.ncols == 3
    assert rank_exact(m) == 3


def tuple_reference(f: SparsePoly, orders: range):
    """Reference assembly on exponent tuples: every row checked against every term.

    Returns the row multi-indices, sorted; per row, the (result monomial,
    cleared value) pairs of the terms it divides, in term order; and the
    cleared denominator.
    """
    scaled = to_scaled(f)
    rows = set()
    for t in scaled.terms:
        support = [i for i, a in enumerate(t.exps) if a]
        box = [()]  # sub-indices on the support, pruned past the top order
        for i in support:
            box = [b + (e,) for b in box for e in range(t.exps[i] + 1) if sum(b) + e <= orders[-1]]
        for b in box:
            if sum(b) in orders:
                beta = [0] * len(t.exps)
                for i, e in zip(support, b):
                    beta[i] = e
                rows.add(tuple(beta))
    rows = sorted(rows)
    clear = math.lcm(*(t.coef.denominator for t in scaled.terms))
    integral = [(t.exps, int(t.coef * clear)) for t in scaled.terms]
    row_pairs = [
        [(tuple(map(sub, exps, beta)), a) for exps, a in integral if all(map(le, beta, exps))]
        for beta in rows
    ]
    return rows, row_pairs, clear


def packer(width: int):
    """Pack an exponent tuple as ``DerivMatrix`` documents: x1 in the top slot."""

    def pack(exps):
        key = 0
        for e in exps:
            key = key << width | e
        return key

    return pack


def row_scan_matrix(f: SparsePoly, orders: range) -> DerivMatrix:
    """The tuple reference with its keys packed as ``DerivMatrix`` documents:
    x1 in the top slot, each slot the bit length of f's largest exponent."""
    return packed_reference(f, *tuple_reference(f, orders))


def packed_reference(f: SparsePoly, rows, row_pairs, clear: int) -> DerivMatrix:
    """The ``DerivMatrix`` of a tuple reference of f."""
    pack = packer(max((e for t in f.terms for e in t.exps), default=0).bit_length())
    entries = tuple({pack(g): a for g, a in pairs} for pairs in row_pairs)
    ncols = len({g for pairs in row_pairs for g, _ in pairs})
    return DerivMatrix(tuple(map(pack, rows)), entries, ncols, clear)


def tuple_keyed_rows(f: SparsePoly, orders: range) -> list[dict[int, int]]:
    """The rows as a tuple-labelled assembly gives them: {lex column index: value}."""
    _, row_pairs, _ = tuple_reference(f, orders)
    index = {g: i for i, g in enumerate(sorted({g for pairs in row_pairs for g, _ in pairs}))}
    return [{index[g]: a for g, a in pairs} for pairs in row_pairs]


def test_build_matrix_matches_row_scan_reference():
    polys = random_polys(seed=81, count=40, max_vars=5, max_terms=8, max_degree=5)
    polys += random_homogeneous_polys(seed=82, count=10, max_vars=5, max_terms=8)
    assert any(not f.is_multilinear for f in polys)
    assert any(f.is_multilinear and f.degree >= 2 for f in polys)
    for f in polys:
        windows = [range(f.degree + 1)]
        windows += [range(k, k + 1) for k in range(f.degree + 2)]
        if f.degree >= 2:
            windows.append(range(1, f.degree))
        for orders in windows:
            assert_same_matrix(build_matrix(f, orders), row_scan_matrix(f, orders))


def assert_same_matrix(got: DerivMatrix, want: DerivMatrix) -> None:
    """Equal field by field, and each row lists its entries in term order."""
    assert got == want
    assert [list(r.items()) for r in got.entries] == [list(r.items()) for r in want.entries]


def graph_class_polys(n: int) -> list[SparsePoly]:
    """The graph polynomial of one graph per nonempty isomorphism class on [n]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [
        graph_to_poly(Graph.make(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
        for bits, _ in graph_classes(n)
        if bits
    ]


def test_packed_enumeration_matches_tuple_reference():
    """Modes star, plus and k, and the trace oracle, against the tuple reference.

    The reference is assembled once, for all orders; the other matrices
    are its rows of the orders they span (0/1 rows only for the oracle).
    """
    k7 = graph_to_poly(Graph.make(7, list(itertools.combinations(range(1, 8), 2))))
    assert len(k7.vars) == 28
    wide = [  # exponents >= 4: slots of three bits and more
        parse_poly("x1^4*x2*x3 + 2/3*x1^2*x2^5 + x3^7 + 5*x1*x2*x3*x4"),
        parse_poly("x1^9*x4^4 + x2^4*x3^4*x4 - x1*x2^2*x3^3 + 7"),
    ]
    # Degree 5 and not homogeneous: in interior mode only the degree-5
    # terms lose beta = alpha, so x2*x4^2 and x3 keep their own rows.
    mixed = parse_poly("x1^2*x2*x3^2 + x1*x2*x3*x4*x5 + 3*x2*x4^2 - x3")
    polys = graph_class_polys(6) + [k7] + wide + [mixed]
    for i, f in enumerate(polys):
        betas, row_pairs, clear = tuple_reference(f, range(f.degree + 1))
        full = packed_reference(f, betas, row_pairs, clear)

        def rows_where(keep) -> DerivMatrix:
            picked = [j for j, beta in enumerate(betas) if keep(beta)]
            rows = tuple(full.rows[j] for j in picked)
            entries = tuple(full.entries[j] for j in picked)
            ncols = len({g for row in entries for g in row})
            return DerivMatrix(rows, entries, ncols, full.clear_factor)

        k = i % (f.degree + 1)  # every order across the graph classes
        assert_same_matrix(build_matrix(f, range(f.degree + 1)), full)
        assert_same_matrix(
            build_matrix(f, range(1, f.degree)), rows_where(lambda b: 0 < sum(b) < f.degree)
        )
        assert_same_matrix(build_matrix(f, range(k, k + 1)), rows_where(lambda b: sum(b) == k))
        assert_same_matrix(
            explicit_B_oracle(f, k).matrix,
            rows_where(lambda b: sum(b) == k and max(b, default=0) <= 1),
        )
    pack = packer(2)
    plus_rows = set(build_matrix(mixed, range(1, mixed.degree)).rows)
    assert {pack((0, 1, 0, 2, 0)), pack((0, 0, 1, 0, 0))} <= plus_rows
    assert not {pack((2, 1, 2, 0, 0)), pack((1, 1, 1, 1, 1)), 0} & plus_rows


def assert_same_elimination(f: SparsePoly, orders: range) -> None:
    """Packed keys and lex column indices give the same peel and the same rank.

    Packing is monotone in the lex order, so the core must hold the same
    rows, in the same order, each with its entries in the same order.
    """
    m = build_matrix(f, orders)
    ref = tuple_keyed_rows(f, orders)
    index = {g: i for i, g in enumerate(sorted({g for row in m.entries for g in row}))}
    got_rank, got_core = exact._peel_singletons([dict(r) for r in m.entries])
    want_rank, want_core = exact._peel_singletons([dict(r) for r in ref])
    assert got_rank == want_rank, (f, orders)
    assert [[(index[g], v) for g, v in row.items()] for row in got_core] == [
        list(row.items()) for row in want_core
    ], (f, orders)
    assert rank_exact(m) == sparse_int_rank(ref), (f, orders)


def test_packed_keys_match_tuple_reference_on_random_polys():
    polys = random_polys(seed=83, count=30, max_vars=5, max_terms=20, max_degree=4)
    cores = 0
    for f in polys:
        half = f.degree // 2
        windows = [range(f.degree + 1), range(half, half + 1)]
        if f.degree >= 2:
            windows.append(range(1, f.degree))
        for orders in windows:
            assert_same_elimination(f, orders)
            rows = [dict(r) for r in build_matrix(f, orders).entries]
            cores += bool(exact._peel_singletons(rows)[1])
    assert cores >= 10  # so Bareiss sees the cores in the same order too


def test_line_view_matches_naive_transpose_and_sorted_rows():
    """``columns`` and ``distinct_rows`` against a per-entry transpose and sorted-tuple rows."""
    polys = random_polys(seed=83, count=30, max_vars=5, max_terms=20, max_degree=4)
    for f in polys:
        half = f.degree // 2
        windows = [range(f.degree + 1), range(half, half + 1)]
        if f.degree >= 2:
            windows.append(range(1, f.degree))
        for orders in windows:
            m = build_matrix(f, orders)
            naive: dict[int, list[tuple[int, int]]] = {}
            for i in range(m.nrows):
                for gamma, v in m.entries[i].items():
                    naive.setdefault(gamma, []).append((m.rows[i], v))
            cols = m.columns()
            assert {g: list(col.items()) for g, col in cols.items()} == naive, (f, orders)
            assert len(cols) == m.ncols
            sorted_rows = {tuple(sorted(row.items())) for row in m.entries}
            distinct = m.distinct_rows()
            assert len(distinct) == len(sorted_rows), (f, orders)
            assert {tuple(sorted(row)) for row in distinct} == sorted_rows, (f, orders)


def test_packed_keys_match_tuple_reference_on_graph_classes():
    pairs = list(itertools.combinations(range(1, 7), 2))
    for bits, _ in graph_classes(6):
        if bits:
            g = Graph.make(6, [e for i, e in enumerate(pairs) if bits >> i & 1])
            f = graph_to_poly(g)
            assert_same_elimination(f, range(1, f.degree))


def test_constant_polynomial_has_one_row_and_one_column():
    f = parse_poly("5")
    assert f.vars == ()
    for orders in (range(f.degree + 1), range(0, 1)):
        m = build_matrix(f, orders)
        assert (m.rows, m.entries, m.ncols) == ((0,), ({0: 5},), 1)
        assert rank_exact(m) == dim_partials(f, orders) == 1


def test_exponent_wider_than_a_byte_gets_a_wider_slot():
    f = parse_poly("x1^300*x2 + 3*x1^299*x2^2 + x2^257")
    for orders in (range(1, 2), range(150, 151), range(f.degree + 1)):
        m = build_matrix(f, orders)
        assert m == row_scan_matrix(f, orders)
        assert rank_exact(m) == sparse_int_rank(tuple_keyed_rows(f, orders))
    assert max(build_matrix(f, range(0, 1)).entries[0]) == 300 << 9 | 1


def test_thirty_variables_give_keys_past_64_bits():
    xs = [f"x{i}" for i in range(1, 31)]
    f = parse_poly(
        "x1^7*" + "*".join(xs[1:]) + " + 2*x30^5*x2 + x1*x15*x29 + 3*x3^6*x30"
    )
    for k in (1, 2):
        orders = range(k, k + 1)
        m = build_matrix(f, orders)
        assert max(g for row in m.entries for g in row) >= 2**64
        assert m == row_scan_matrix(f, orders)
        assert_same_elimination(f, orders)


def slot_units(n: int, width: int) -> list[int]:
    """Each variable's unit in a packed key, x1 in the top slot."""
    return [1 << width * i for i in reversed(range(n))]


@pytest.mark.parametrize("seed", range(6))
def test_sub_index_enumerators_match_brute_force(seed):
    """The packed enumerators give the packed brute-force box, as documented."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(0, 6)
        top = 1 if rng.random() < 0.4 else 4
        alpha = tuple(rng.randint(0, top) for _ in range(n))
        width = max(alpha, default=0).bit_length() + rng.randint(0, 2)
        units, pack = slot_units(n, width), packer(width)
        box = list(itertools.product(*(range(a + 1) for a in alpha)))
        assert list(all_sub_indices(alpha)) == box  # lex order
        packed = list(map(pack, box))
        assert list(packed_box(alpha, units)) == packed  # ascending
        assert list(packed_box(alpha, units, drop_zero=True)) == packed[1:]
        assert list(packed_box(alpha, units, drop_top=True)) == packed[:-1]
        assert list(packed_box(alpha, units, drop_zero=True, drop_top=True)) == packed[1:-1]
        support = [u for a, u in zip(alpha, units) if a]
        for k in range(sum(alpha) + 3):
            got = list(packed_sub_indices(alpha, units, range(k, k + 1)))
            assert len(got) == len(set(got))
            assert set(got) == {pack(b) for b in box if sum(b) == k}, (alpha, k)
            subsets = list(packed_subsets(support, k))
            assert len(subsets) == len(set(subsets))
            assert set(subsets) == {pack(b) for b in box if sum(b) == k and max(b, default=0) <= 1}
        assert list(packed_subsets(support, -1)) == []


def test_sub_indices_above_the_degree_are_empty_at_once():
    # Walking the candidates here would not finish: C(10^4 + 2, 2) multisets.
    assert list(packed_sub_indices((3, 2, 1), slot_units(3, 2), range(10**4, 10**4 + 1))) == []
    assert list(packed_sub_indices((1, 1, 0, 1), slot_units(4, 1), range(10**4, 10**4 + 1))) == []
    # combinations() would allocate k indices first, or overflow past a C ssize_t
    for k in (10**9, 2**63 - 1, 10**20):
        assert list(packed_sub_indices((1, 1, 0, 1), slot_units(4, 1), range(k, k + 1))) == []
        assert list(packed_subsets([4, 2, 1], k)) == []


@contextmanager
def combinat_steps(limit: int):
    """Count the lines run inside ``pdrank.combinat``; fail past ``limit``.

    A deterministic measure of the enumerators' work, with no wall clock:
    one that walked candidates it throws away fails here at once instead of
    running for hours.
    """
    steps = [0]

    def local(frame, event, arg):
        if event == "line":
            steps[0] += 1
            if steps[0] > limit:
                raise AssertionError(f"more than {limit} steps in pdrank.combinat")
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == combinat.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield steps
    finally:
        sys.settrace(previous)


# Lines of ``pdrank.combinat`` allowed per nonzero entry, whatever the
# number of variables.  A 0/1 term takes about 2 (its setup, then C-level
# ``combinations``); the walk over the variables with alpha_i >= 2 about 18.
STEPS_PER_ENTRY = 20


@contextmanager
def counted_draws(monkeypatch):
    """Record every packed sub-index that ``exact`` draws from ``pdrank.combinat``."""
    drawn: list[int] = []

    def counting(enumerate_keys):
        def wrapper(*args, **kwargs):
            for beta in enumerate_keys(*args, **kwargs):
                drawn.append(beta)
                yield beta

        return wrapper

    monkeypatch.setattr(exact, "packed_sub_indices", counting(packed_sub_indices))
    monkeypatch.setattr(exact, "packed_box", counting(packed_box))
    yield drawn


@pytest.mark.parametrize("top", [1, 3])
def test_build_matrix_work_is_one_step_per_nonzero(monkeypatch, top):
    """Every sub-index drawn lands exactly one matrix entry: work == nnz.

    ``top`` is the largest exponent: 1 gives a multilinear input, 3 one
    whose sub-indices are not subsets of the support.
    """
    rng = random.Random(3)
    items = {}
    while len(items) < 100:
        exps = [0] * 14
        for i in rng.sample(range(14), 2 + len(items) % 5):
            exps[i] = rng.randint(1, top)
        items[tuple(exps)] = Fraction(rng.randint(1, 9), rng.randint(1, 10))
    f = SparsePoly.from_terms([f"x{i}" for i in range(1, 15)], items.items())
    assert f.is_multilinear == (top == 1)
    windows = [range(k, k + 1) for k in (1, 2, 3)] + [range(1, 4)]
    for orders in windows + [range(f.degree + 1), range(1, f.degree)]:
        with counted_draws(monkeypatch) as drawn, combinat_steps(10**9) as steps:
            m = build_matrix(f, orders)
        nnz = sum(len(row) for row in m.entries)
        assert len(drawn) == nnz
        assert steps[0] <= STEPS_PER_ENTRY * nnz
        if top == 1 and len(orders) == 1:
            assert nnz == sum(math.comb(sum(t.exps), orders[0]) for t in f.terms)


def test_row_cap_bounds_the_enumeration_work(monkeypatch):
    """x1^2*x2*...*x30 at k=15 has about 2.3e8 rows: the cap ends the walk.

    Lex order over multisets would put C(41, 12) invalid candidates (all
    starting x1^3) before the first valid row; the enumerator must instead
    draw only valid rows, and the cap must stop it at the first row past it.
    """
    f = parse_poly("x1^2*" + "*".join(f"x{i}" for i in range(2, 31)))
    max_rows = 2000
    with counted_draws(monkeypatch) as drawn:
        with combinat_steps(STEPS_PER_ENTRY * (max_rows + 1)):
            with pytest.raises(ResourceLimitError) as err:
                build_matrix(f, range(15, 16), max_rows=max_rows)
    assert (err.value.what, err.value.actual) == ("rows", max_rows + 1)
    assert len(drawn) == len(set(drawn)) == max_rows + 1
    # Unpacked (two-bit slots, x1 on top), every row drawn is in the box.
    for beta in drawn:
        exps = [beta >> 2 * i & 3 for i in reversed(range(30))]
        assert sum(exps) == 15 and exps[0] <= 2 and max(exps[1:]) <= 1


def test_rank_identity_and_duplicate_rows():
    ident = [{i: 1} for i in range(6)]
    assert sparse_int_rank(ident) == 6
    assert sparse_int_rank(ident + [dict(ident[0])]) == 6
    # duplicate singleton rows, scaled: the first pivot empties the others
    rows = [{1: 3}, {1: -6}, {1: 3}, {0: 1, 1: 1}]
    assert exact._peel_singletons([dict(r) for r in rows]) == (2, [])
    assert sparse_int_rank(rows, budget=0) == 2


def test_rank_against_dense_known_matrices():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert sparse_int_rank(rows) == 2
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}, {0: 3, 1: 1}]
    assert sparse_int_rank(rows) == 2
    assert sparse_int_rank([]) == 0
    assert sparse_int_rank([{}]) == 0


def fraction_gaussian_rank(dense) -> int:
    """Independent oracle: plain Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in row] for row in dense]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / prow[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], prow)]
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


# Mostly zeros: singleton cascades, empty rows and nonempty cores all occur.
ZERO_HEAVY = st.sampled_from((0,) * 14 + (1, -1, 2, -3, 5, 7))


@given(st.booleans(), st.data())
@settings(max_examples=300)
def test_rank_matches_fraction_gaussian_oracle(zero_heavy, data):
    side, entries = (10, ZERO_HEAVY) if zero_heavy else (6, st.integers(-9, 9))
    nrows = data.draw(st.integers(1, side))
    ncols = data.draw(st.integers(1, side))
    dense = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
    assert sparse_int_rank(sparse) == fraction_gaussian_rank(dense)


def to_dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_peel_cascades_through_columns_then_rows():
    """The B rows go by a cascade of singleton columns (7 -> 6 -> 5 -> 4);
    A and D then go by a cascade of singleton rows (A0 -> A1 -> A2 or D,
    leaving the other empty).  Nothing is left for Bareiss."""
    rows = [
        {0: 2},  # A0
        {0: 1, 1: 3},  # A1
        {1: -1, 2: 4},  # A2
        {0: 1, 1: 1, 2: 1},  # D
        {2: 1, 3: 1, 4: 5},  # B0
        {4: 1, 5: 2},  # B1
        {2: 7, 5: 1, 6: 1},  # B2
        {6: 3, 7: 1},  # B3
    ]
    before = [dict(r) for r in rows]
    assert exact._peel_singletons([dict(r) for r in rows]) == (7, [])
    assert sparse_int_rank(rows, budget=0) == 7 == fraction_gaussian_rank(to_dense(rows, 8))
    assert rows == before  # the input is not modified


def test_peel_leaves_a_core_for_bareiss():
    """A rank-2 dense 3x3 block survives the peel of a singleton row (column
    3, which it shares) and a singleton column (4); Bareiss finishes it."""
    block = [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}]
    rows = [{**block[0], 3: 1}, block[1], {3: 5}, block[2], {0: 1, 4: 2}]
    assert exact._peel_singletons([dict(r) for r in rows]) == (2, block)
    assert sparse_int_rank(rows) == 4 == fraction_gaussian_rank(to_dense(rows, 5))
    with pytest.raises(ResourceLimitError) as err:
        sparse_int_rank(rows, budget=0)
    assert err.value.what == "elimination-budget"


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=5
    )
)
@settings(max_examples=100)
def test_rank_matches_gram_rank(dense):
    """rank(M) == rank(M^T M) over the rationals."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    ncols = 4
    gram = [[0] * ncols for _ in range(ncols)]
    for r in dense:
        for i in range(ncols):
            if r[i]:
                for j in range(ncols):
                    gram[i][j] += r[i] * r[j]
    gram_rows = [{j: v for j, v in enumerate(g) if v} for g in gram]
    assert sparse_int_rank(rows) == sparse_int_rank(gram_rows)


DATA = Path(__file__).parent / "data"
# The singleton peel leaves a 67-row, 164-entry core of multilinear40 in
# both modes (every row with two entries or more, every column in two rows
# or more); Bareiss makes 550 entry updates on it.  Plain Bareiss on the
# whole 685-row matrix made 1,325,698, and on the core with every row
# rescaled at every pivot, 5342.
CORE_UPDATES = 10_000
LAZY_CORE_UPDATES = 1_000


@pytest.mark.parametrize(
    "first, golden",
    [(0, "multilinear40.dim_star.json"), (1, "multilinear40.dim_plus.json")],
    ids=["star", "plus"],
)
def test_multilinear40_rank_needs_elimination_on_the_core_only(first, golden):
    f = parse_poly((DATA / "multilinear40.poly").read_text())
    want = json.loads((DATA / golden).read_text())["exact_dim"]["value"]
    matrix = build_matrix(f, range(first, f.degree + 1 - first))
    assert rank_exact(matrix, budget=CORE_UPDATES) == want
    assert rank_exact(matrix, budget=LAZY_CORE_UPDATES) == want


def final_rank_rows(rows, **kwargs) -> list[dict[int, int]]:
    """The core rows as ``sparse_int_rank`` leaves them at its return."""
    seen = []

    def local(frame, event, arg):
        if event == "return":
            seen.append([dict(row) for row in frame.f_locals["work"]])
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is exact.sparse_int_rank.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        sparse_int_rank(rows, **kwargs)
    finally:
        sys.settrace(previous)
    assert len(seen) == 1
    return seen[0]


def hadamard_square(rows: list[dict[int, int]]) -> int:
    """Square of the Hadamard bound: no minor of the rows exceeds its root."""
    return math.prod(max(1, sum(v * v for v in row.values())) for row in rows)


def dense_rows(seed: int, size: int) -> list[dict[int, int]]:
    rng = random.Random(seed)
    return [{j: v for j in range(size) if (v := rng.randint(-9, 9))} for _ in range(size)]


@pytest.mark.parametrize("case", ["dense12", "multilinear40"])
def test_bareiss_entries_stay_within_the_hadamard_bound(case):
    """Peeling leaves entries as they are and Bareiss entries are minors, so
    none exceeds the Hadamard bound of the input; an elimination that never
    divided would pass every rank test but not this one."""
    if case == "dense12":
        rows = dense_rows(12, 12)
    else:
        f = parse_poly((DATA / "multilinear40.poly").read_text())
        rows = list(build_matrix(f, range(f.degree + 1)).entries)
    bound = hadamard_square(rows)
    work = final_rank_rows(rows)
    assert any(len(row) > 1 for row in work)  # elimination ran on a core
    assert all(v * v <= bound for row in work for v in row.values())


def sympy_dim(f: SparsePoly, orders: range) -> int:
    """Independent oracle: ``sympy.Matrix.rank`` of the derivatives
    ``sympy.Poly.diff`` takes, one row per multi-index of the requested
    orders inside the box of f's largest exponents."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f.vars)
    p = sympy.Poly.from_dict(
        {t.exps: sympy.Rational(t.coef.numerator, t.coef.denominator) for t in f.terms},
        *xs,
    )
    box = [range(max(t.exps[i] for t in f.terms) + 1) for i in range(len(xs))]
    derivs = [
        p.diff(*[(x, b) for x, b in zip(xs, beta) if b]).as_dict() if any(beta) else p.as_dict()
        for beta in itertools.product(*box)
        if sum(beta) in orders
    ]
    monomials = sorted({m for d in derivs for m in d})
    return sympy.Matrix([[d.get(m, 0) for m in monomials] for d in derivs]).rank()


def test_dim_partials_matches_sympy_rank():
    polys = random_polys(seed=23, count=12, max_vars=3, max_terms=5, max_degree=4)
    for f in polys:
        windows = [range(f.degree + 1)] + [range(k, k + 1) for k in range(f.degree + 1)]
        if f.degree >= 2:
            windows.append(range(1, f.degree))
        for orders in windows:
            assert dim_partials(f, orders) == sympy_dim(f, orders), (f, orders)


def test_dim_partials_power_sum_plus_product():
    n = 5
    text = "+".join(
        ["*".join(f"x{i}" for i in range(1, n + 1))]
        + [f"x{i}^{n}" for i in range(1, n + 1)]
    )
    f = parse_poly(text)
    dims = [dim_partials(f, range(k, k + 1)) for k in range(n + 1)]
    assert dims == [1, 5, 15, 15, 5, 1]


def test_dim_partials_zero_poly_is_zero():
    f = parse_poly("x1 - x1")
    assert dim_partials(f, range(1, 2)) == 0
    assert dim_partials(f, range(10)) == 0  # the zero polynomial has no degree


def test_dim_star_of_monomial_is_product():
    f = parse_poly("x1^2*x2^3*x3")
    assert dim_partials(f, range(f.degree + 1)) == 3 * 4 * 2


def test_product_polynomial_dimension_is_binomial():
    """prod_i sum_j x_ij keeps dimension C(d, k) no matter how wide the sums are."""
    import math

    for d in range(1, 5):
        for q in range(1, 4):
            variables = [f"x{i}_{j}" for i in range(1, d + 1) for j in range(1, q + 1)]
            items = []
            for choice in itertools.product(range(q), repeat=d):
                exps = [0] * (d * q)
                for i, j in enumerate(choice):
                    exps[i * q + j] = 1
                items.append((tuple(exps), 1))
            f = SparsePoly.from_terms(variables, items)
            for k in range(d + 1):
                assert dim_partials(f, range(k, k + 1)) == math.comb(d, k)


def test_homogeneous_direct_sum_and_interior_identity():
    for f in random_homogeneous_polys(seed=11, count=8):
        deg = f.degree
        total = sum(
            dim_partials(f, range(k, k + 1)) for k in range(deg + 1)
        )
        assert dim_partials(f, range(f.degree + 1)) == total
        if deg >= 2:
            star = dim_partials(f, range(f.degree + 1))
            assert dim_partials(f, range(1, f.degree)) == star - 2


def test_homogeneous_order_matrices_are_transposes():
    """For f homogeneous of degree d, the order-(d-j) matrix is the order-j
    matrix transposed (scaled basis), so dim_j = dim_{d-j} by rank_exact."""
    polys = random_homogeneous_polys(seed=12, count=30, max_terms=8, degree_range=(2, 6))
    assert {f.degree for f in polys} == {2, 3, 4, 5, 6}
    for f in polys:
        d = f.degree
        matrices = [build_matrix(f, range(j, j + 1)) for j in range(d + 1)]
        for j in range(d + 1):
            low, high = matrices[j], matrices[d - j]
            assert dict(zip(high.rows, high.entries)) == low.columns()
            assert rank_exact(low) == rank_exact(high)


def test_order_range_matrix_is_the_union_of_its_orders():
    """range(k, top + 1) gives the rows of every order j, k <= j <= top,
    with the same entries in the same order; columns shared by orders count once."""
    polys = random_polys(seed=84, count=30, max_vars=5, max_terms=8, max_degree=5)
    polys += random_homogeneous_polys(seed=85, count=10, max_vars=5, max_terms=8)
    assert any(not f.is_homogeneous for f in polys)
    for f in polys:
        for k in range(f.degree + 2):
            for top in range(k, f.degree + 2):
                parts = [build_matrix(f, range(j, j + 1)) for j in range(k, top + 1)]
                rows = sorted(
                    (beta, row) for m in parts for beta, row in zip(m.rows, m.entries)
                )
                union = DerivMatrix(
                    tuple(beta for beta, _ in rows),
                    tuple(row for _, row in rows),
                    len({gamma for _, row in rows for gamma in row}),
                    parts[0].clear_factor,
                )
                assert_same_matrix(build_matrix(f, range(k, top + 1)), union)


def test_full_windows_give_one_matrix_from_either_enumerator():
    """A window that holds every order 1..deg-1 (star, plus, or past the
    degree) draws each term's box; the order-by-order walk draws the same
    keys.  Both, forced through ``assemble``, give one matrix, each row's
    entries in one order, and ``build_matrix`` gives it too."""
    polys = random_polys(seed=86, count=40, max_vars=5, max_terms=8, max_degree=5)
    polys += random_homogeneous_polys(seed=87, count=15, max_vars=5, max_terms=8)
    caps = {"max_rows": exact.DEFAULT_MAX_ROWS, "max_cols": exact.DEFAULT_MAX_COLS}
    for f in polys:
        scaled, deg = to_scaled(f), f.degree
        for orders in (range(deg + 1), range(1, deg), range(0, deg + 3)):

            def box(alpha, units):
                drop_top = sum(alpha) not in orders
                return packed_box(alpha, units, drop_zero=0 not in orders, drop_top=drop_top)

            def walk(alpha, units):
                return packed_sub_indices(alpha, units, orders)

            boxed = exact.assemble(scaled, box, **caps)
            assert_same_matrix(exact.assemble(scaled, walk, **caps), boxed)
            assert_same_matrix(build_matrix(f, orders), boxed)


def test_build_matrix_refuses_a_negative_or_stepped_window():
    f = parse_poly("x1^2*x2 + x3")
    for bad in (range(-1, 2), range(0, 5, 2)):
        with pytest.raises(ValueError, match="range of naturals with step 1"):
            build_matrix(f, bad)
    # an empty window, or one past the degree, spans nothing
    assert dim_partials(parse_poly("x1 + x2"), range(1, 1)) == 0
    assert dim_partials(f, range(4, 9)) == 0


def test_dimension_invariant_under_scaling_and_permutation():
    for i, f in enumerate(random_polys(seed=5, count=6, max_vars=4, max_terms=5)):
        k = i % (f.degree + 1)
        base = dim_partials(f, range(k, k + 1))
        assert dim_partials(scale(f, Fraction(-7, 3)), range(k, k + 1)) == base
        n = len(f.vars)
        perm = tuple(reversed(range(n)))
        assert dim_partials(permute_vars(f, perm), range(k, k + 1)) == base


def test_resource_caps_raise_structured_errors():
    f = parse_poly("x1^3*x2^3*x3^3")
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(f, range(f.degree + 1), max_rows=10)
    assert err.value.what == "rows"
    assert err.value.actual == 11  # checked as each row is added, not per term
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(f, range(f.degree + 1), max_cols=10)
    assert (err.value.what, err.value.actual) == ("cols", 11)  # checked as each column is added
    with pytest.raises(ResourceLimitError) as err:  # both overflow: rows first
        build_matrix(f, range(f.degree + 1), max_rows=10, max_cols=10)
    assert (err.value.what, err.value.actual) == ("rows", 11)
    # k=1 on x1*x2*xj, j = 3..11: each term adds two columns and one row, so
    # the columns pass 10 at j = 7 and the rows at j = 11; rows still win.
    g = parse_poly(" + ".join(f"x1*x2*x{j}" for j in range(3, 12)))
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(g, range(1, 2), max_cols=10)
    assert (err.value.what, err.value.actual) == ("cols", 11)
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(g, range(1, 2), max_rows=10, max_cols=10)
    assert (err.value.what, err.value.actual) == ("rows", 11)
    big = [{j: j + i + 1 for j in range(40)} for i in range(40)]
    with pytest.raises(ResourceLimitError) as err:
        sparse_int_rank(big, budget=100)
    assert err.value.what == "elimination-budget"


def test_column_overflow_inside_a_term_still_counts_its_rows():
    """x1*...*x8 at k=4: 70 rows, each with its own column, all from one term.

    The columns pass 10 at the 11th row drawn; the walk goes on over the
    same term's keys, so a row cap of 20 is still named first.
    """
    f = parse_poly("*".join(f"x{i}" for i in range(1, 9)))
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(f, range(4, 5), max_rows=20, max_cols=10)
    assert (err.value.what, err.value.actual) == ("rows", 21)
    with pytest.raises(ResourceLimitError) as err:
        build_matrix(f, range(4, 5), max_rows=100, max_cols=10)
    assert (err.value.what, err.value.actual) == ("cols", 11)


def test_matrix_entries_clear_denominators():
    f = parse_poly("1/2*x1 + 1/3*x2")
    m = build_matrix(f, range(1, 2))
    assert m.clear_factor == 6
    vals = sorted(v for row in m.entries for v in row.values())
    assert vals == [2, 3]
