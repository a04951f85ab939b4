"""Graph/complex constructions and the face-count identity."""

import dataclasses
import math
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from pdrank import (
    DerivMatrix,
    Graph,
    SimplicialComplex,
    build_matrix,
    complex_to_poly,
    count_faces,
    count_independent_sets,
    derivative,
    dim_partials,
    graph_complex,
    graph_to_poly,
    parse_complex,
    parse_graph,
    partial_plus_basis,
    rank_exact,
    to_ordinary,
    to_scaled,
    verify_reduction,
)
from pdrank import reductions
from pdrank.corpus import random_pure_complexes
from pdrank.errors import InvariantViolation, ResourceLimitError
from pdrank.reductions import (
    all_graphs,
    enumerate_faces,
    exhaustive_verify,
    graph_classes,
    poly_stack_rank,
)

DATA = Path(__file__).parent / "data"


def brute_force_independent_sets(g: Graph) -> int:
    """Whiteboard oracle: test every subset against every edge."""
    count = 0
    verts = list(range(1, g.n + 1))
    for r in range(g.n + 1):
        for subset in combinations(verts, r):
            s = set(subset)
            if all(not (u in s and v in s) for u, v in g.edges):
                count += 1
    return count


K3 = Graph.make(3, [(1, 2), (2, 3), (1, 3)])
PATH3 = Graph.make(3, [(1, 2), (2, 3)])


def test_independent_sets_known_values():
    assert count_independent_sets(Graph.make(4, [])) == 16
    assert count_independent_sets(K3) == 4
    assert count_independent_sets(Graph.make(2, [(1, 2)])) == 3
    assert count_independent_sets(PATH3) == 5


def test_independent_sets_matches_brute_force():
    import random

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph.make(n, edges)
        assert count_independent_sets(g) == brute_force_independent_sets(g)


def test_graph_complex_k3():
    sc = graph_complex(K3)
    assert sc.facets == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_graph_complex_path_and_cycle():
    sc = graph_complex(Graph.make(3, [(1, 2)]))
    assert sc.facets == (frozenset({3}),)
    c4 = Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    sc4 = graph_complex(c4)
    assert len(sc4.facets) == 4
    assert all(len(f) == 2 for f in sc4.facets)


def test_graph_complex_needs_three_vertices():
    with pytest.raises(ValueError):
        graph_complex(Graph.make(2, [(1, 2)]))


def test_count_faces_single_and_disjoint_facets():
    assert count_faces(SimplicialComplex.make(5, [[1, 2, 3]])) == 7
    sc = SimplicialComplex.make(6, [[1, 2], [4, 5, 6]])
    assert count_faces(sc) == 3 + 7


def test_count_faces_edge_complement_identity():
    for g in (K3, PATH3, Graph.make(4, [(1, 2), (3, 4), (1, 3)])):
        sc = graph_complex(g)
        assert count_faces(sc) == 2**g.n - count_independent_sets(g) - 1


def test_count_faces_both_strategies_agree():
    # overlapping facets: 7 + 7 - 3 shared nonempty subsets of {2, 3}; unused
    # ground vertices change nothing
    small_ground = SimplicialComplex.make(4, [[1, 2, 3], [2, 3, 4]])
    large_ground = SimplicialComplex.make(10, [[1, 2, 3], [2, 3, 4]])
    assert count_faces(small_ground) == count_faces(large_ground) == 11


def test_count_faces_one_large_facet():
    sc = SimplicialComplex.make(20, [range(1, 21)])
    assert count_faces(sc) == 2**20 - 1


def test_count_faces_ground_cap():
    with pytest.raises(ResourceLimitError) as err:
        count_faces(SimplicialComplex.make(25, [[1, 2]]))
    assert err.value.what == "ground"


def test_count_faces_monotone_under_added_facet():
    base = SimplicialComplex.make(6, [[1, 2, 3]])
    bigger = SimplicialComplex.make(6, [[1, 2, 3], [4, 5]])
    assert count_faces(bigger) >= count_faces(base)


def test_complex_to_poly_examples():
    sc = SimplicialComplex.make(3, [[1, 2], [2, 3]])
    f = complex_to_poly(sc)
    assert f.vars == ("X1", "X2", "X3", "Y1", "Y2")
    assert f.coef_map() == {(1, 1, 0, 1, 0): 1, (0, 1, 1, 0, 1): 1}
    single = complex_to_poly(SimplicialComplex.make(4, [[1, 2, 3, 4]]))
    assert len(single.terms) == 1
    assert single.degree == 5


def test_complex_to_poly_requires_pure():
    with pytest.raises(ValueError):
        complex_to_poly(parse_complex("1 2\n3"))


def test_graph_to_poly_k3_display():
    f = graph_to_poly(K3)
    assert f.vars == ("X1", "X2", "X3", "Y_1_2", "Y_1_3", "Y_2_3")
    assert f.coef_map() == {
        (0, 0, 1, 1, 0, 0): 1,  # Y_1_2 * X3
        (0, 1, 0, 0, 1, 0): 1,  # Y_1_3 * X2
        (1, 0, 0, 0, 0, 1): 1,  # Y_2_3 * X1
    }
    assert f.is_multilinear and f.is_homogeneous
    assert f.degree == K3.n - 1


def test_enumerate_faces_sorted():
    sc = SimplicialComplex.make(3, [[1, 2], [2, 3]])
    faces = enumerate_faces(sc)
    assert faces == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    ]


def test_partial_plus_basis_single_facet():
    sc = SimplicialComplex.make(2, [[1, 2]])
    basis = partial_plus_basis(sc)
    assert len(basis) == 6  # faces {1},{2},{1,2} -> 3 monomials + 3 derivatives
    assert poly_stack_rank(basis) == 6


def test_partial_plus_basis_full_rank_and_dims_random():
    for sc in random_pure_complexes(seed=31, count=10, max_ground=6, max_facets=5):
        faces = count_faces(sc)
        basis = partial_plus_basis(sc)
        assert len(basis) == 2 * faces
        assert poly_stack_rank(basis) == 2 * faces
        f = complex_to_poly(sc)
        assert dim_partials(f, range(1, f.degree)) == 2 * faces
        assert dim_partials(f, range(f.degree + 1)) == 2 * faces + 2


def test_partial_plus_basis_matches_face_derivatives():
    """The term-first basis equals one derivative per face, polynomial by polynomial."""
    complexes = random_pure_complexes(seed=37, count=15, max_ground=7, max_facets=6)
    complexes += [graph_complex(g) for g in all_graphs(4) if g.m]
    for sc in complexes:
        scaled = to_scaled(complex_to_poly(sc))
        faces = enumerate_faces(sc)
        nvars = len(scaled.vars)
        expected = [
            to_ordinary(
                derivative(scaled, tuple(int(i + 1 in face) for i in range(nvars)))
            )
            for face in faces
        ]
        assert partial_plus_basis(sc)[len(faces) :] == expected


def interior_matrix(sc):
    f = complex_to_poly(sc)
    return build_matrix(f, range(1, f.degree))


def disjoint_row_count(matrix):
    """The number of distinct rows of ``matrix`` when they share no column, else None."""
    distinct = matrix.distinct_rows()
    return len(distinct) if sum(map(len, distinct)) == matrix.ncols else None


def unpack(key, nvars, width):
    """The exponent tuple of a packed monomial key, x1 in the top slot."""
    mask = (1 << width) - 1
    return tuple(key >> width * (nvars - 1 - i) & mask for i in range(nvars))


def test_distinct_interior_rows_are_the_explicit_basis():
    """The distinct rows of the interior-order matrix are the coefficient
    vectors of ``partial_plus_basis``, as multisets; they share no column,
    and the polynomial reference ranks them at 2 * faces."""
    complexes = random_pure_complexes(seed=31, count=10, max_ground=6, max_facets=5)
    complexes += random_pure_complexes(seed=37, count=15, max_ground=7, max_facets=6)
    complexes += [graph_complex(g) for n in (3, 4, 5) for g in all_graphs(n) if g.m]
    for sc in complexes:
        f = complex_to_poly(sc)
        matrix = interior_matrix(sc)
        faces = count_faces(sc)
        basis = partial_plus_basis(sc)
        nvars = len(f.vars)
        width = max(e for t in f.terms for e in t.exps).bit_length()
        rows = {
            frozenset((unpack(j, nvars, width), v) for j, v in row.items())
            for row in matrix.entries
        }
        polys = Counter(frozenset((t.exps, t.coef) for t in p.terms) for p in basis)
        assert Counter(rows) == polys
        assert disjoint_row_count(matrix) == 2 * faces
        assert poly_stack_rank(basis) == 2 * faces


def x_block(sc):
    """The Y-free rows of the interior matrix, its columns recounted.

    Each Y is one of the last ``len(sc.facets)`` variables, the low bits
    of a packed key (f is multilinear: one bit per slot).
    """
    matrix = interior_matrix(sc)
    y_bits = (1 << len(sc.facets)) - 1
    rows = zip(matrix.rows, matrix.entries)
    return rebuild(matrix, [(b, row) for b, row in rows if not b & y_bits])


def rebuild(matrix, rows):
    """A matrix of the (row key, row) pairs ``rows``, its column count recomputed."""
    ncols = len({j for _, row in rows for j in row})
    return DerivMatrix(
        tuple(b for b, _ in rows), tuple(row for _, row in rows), ncols, matrix.clear_factor
    )


BASIS_CASES = [
    SimplicialComplex.make(4, [[1, 2], [2, 3], [3, 4]]),
    SimplicialComplex.make(5, [[1, 2, 3], [3, 4, 5]]),
    graph_complex(Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])),
]


def with_shared_column(matrix):
    """``matrix`` with its first row given a column of another row."""
    target = matrix.entries[0]
    extra = next(j for row in matrix.entries for j in row if j not in target)
    rows = [
        (b, {**row, extra: 1} if row == target else row)
        for b, row in zip(matrix.rows, matrix.entries)
    ]
    return rebuild(matrix, rows)


def without_a_single_row(matrix):
    """``matrix`` less its last row that occurs once, so the distinct rows lose one; and its key."""
    counts = Counter(frozenset(row.items()) for row in matrix.entries)
    drop = max(i for i, row in enumerate(matrix.entries) if counts[frozenset(row.items())] == 1)
    rows = list(zip(matrix.rows, matrix.entries))
    del rows[drop]
    return rebuild(matrix, rows), matrix.rows[drop]


@pytest.mark.parametrize("sc", BASIS_CASES)
def test_basis_check_rejects_a_shared_column(sc):
    matrix, faces = interior_matrix(sc), count_faces(sc)
    corrupted = with_shared_column(matrix)
    assert corrupted.ncols == matrix.ncols
    assert len({frozenset(row.items()) for row in corrupted.entries}) == 2 * faces
    assert disjoint_row_count(matrix) == 2 * faces
    assert disjoint_row_count(corrupted) is None
    block = x_block(sc)
    assert reductions._x_block_dim(block) == (2 * faces, 2 * faces)
    shared = with_shared_column(block)
    assert reductions._x_block_dim(shared) == (2 * rank_exact(shared), None)


@pytest.mark.parametrize("sc", BASIS_CASES)
def test_basis_check_rejects_a_dropped_row(sc):
    matrix, faces = interior_matrix(sc), count_faces(sc)
    assert disjoint_row_count(without_a_single_row(matrix)[0]) == 2 * faces - 1
    # in the X-row block every row counts twice, for itself and its transpose
    dropped = without_a_single_row(x_block(sc))[0]
    assert reductions._x_block_dim(dropped) == (2 * faces - 2, 2 * faces - 2)


@pytest.mark.parametrize("sc", BASIS_CASES)
def test_basis_check_rejects_a_face_count_off_by_one(monkeypatch, sc):
    assert verify_reduction(sc).basis_verified is True
    real = reductions.count_faces
    for off in (-1, 1):
        monkeypatch.setattr(reductions, "count_faces", lambda c: real(c) + off)
        report = verify_reduction(sc)
        assert report.dim_plus == 2 * real(sc)
        assert report.identity_holds is False
        assert report.basis_verified is False


def test_verify_reduction_reports_a_corrupted_basis(monkeypatch):
    """An X-row block whose rows share a column fails the basis check of
    ``verify_reduction``; its rank, from the fallback, still meets the
    identity.  K3's X-row block is its three order-1 rows X1, X2, X3, and
    the fallback ranks it once."""
    real = reductions.assemble
    real_rank = reductions.sparse_int_rank
    ranked = []

    def recording_rank(rows, **kwargs):
        ranked.append(rows)
        return real_rank(rows, **kwargs)

    def shared_column(f, sub_indices, **kwargs):
        matrix = real(f, sub_indices, **kwargs)
        rows = list(zip(matrix.rows, matrix.entries))
        rows[0] = (rows[0][0], {**rows[0][1], **rows[-1][1]})
        return rebuild(matrix, rows)

    monkeypatch.setattr(reductions, "assemble", shared_column)
    monkeypatch.setattr(reductions, "sparse_int_rank", recording_rank)
    report = verify_reduction(K3)
    assert len(ranked) == 1
    assert report.dim_plus == 6
    assert report.identity_holds is True
    assert report.basis_verified is False


def nonempty_classes_and_random_complexes():
    """Every nonempty graph class on 3..6 vertices, as its complex, and two random corpora."""
    complexes = [
        graph_complex(reductions._graph_from_bits(n, bits))
        for n in range(3, 7)
        for bits, _ in graph_classes(n)
        if bits
    ]
    complexes += random_pure_complexes(seed=31, count=10, max_ground=6, max_facets=5)
    complexes += random_pure_complexes(seed=37, count=15, max_ground=7, max_facets=6)
    assert len(complexes) == 3 + 10 + 33 + 155 + 10 + 15
    return complexes


def test_disjoint_row_count_is_the_exact_rank():
    """On every nonempty class on 3..6 vertices and two random corpora."""
    for sc in nonempty_classes_and_random_complexes():
        matrix = interior_matrix(sc)
        assert disjoint_row_count(matrix) == rank_exact(matrix)


def recording_assemble(monkeypatch):
    """Make ``verify_reduction`` record each matrix it assembles in the list returned."""
    built = []
    real = reductions.assemble

    def recording(f, sub_indices, **kwargs):
        built.append(real(f, sub_indices, **kwargs))
        return built[-1]

    monkeypatch.setattr(reductions, "assemble", recording)
    return built


def test_x_block_gives_the_interior_rank_and_certificate(monkeypatch):
    """dim_plus and basis_verified from the X-row block are those of the
    whole interior matrix, its exact rank and its distinct-row certificate:
    from the certified count, and from the fallback rank, which a column
    count one too many forces."""
    parities = set()
    built = recording_assemble(monkeypatch)
    for sc in nonempty_classes_and_random_complexes():
        full = interior_matrix(sc)
        rank, count = rank_exact(full), disjoint_row_count(full)
        block = x_block(sc)
        parities.add(len(sc.facets[0]) % 2)
        assert reductions._x_block_dim(block) == (rank, count)
        report = verify_reduction(sc)
        assert built.pop() == block
        assert report.dim_plus == rank
        assert report.basis_verified is (count == 2 * count_faces(sc))
        forced = dataclasses.replace(block, ncols=block.ncols + 1)
        assert reductions._x_block_dim(forced) == (rank, None)
    assert parities == {0, 1}


def test_per_order_dims_are_read_off_the_x_block():
    """dim_j(f) = phi_j + phi_{D-j} for j = 1..D-1, with phi_j the
    X-rows of key weight j (faces of size j): the order-j matrix is the
    X-rows of weight j beside the transpose of those of weight D - j."""
    for sc in nonempty_classes_and_random_complexes():
        f = complex_to_poly(sc)
        phi = Counter(map(int.bit_count, x_block(sc).rows))
        for j in range(1, f.degree):
            order_j = rank_exact(build_matrix(f, range(j, j + 1)))
            assert phi[j] + phi[f.degree - j] == order_j


@pytest.mark.parametrize(
    "obj",
    [
        K3,
        parse_graph((DATA / "graph6.graph").read_text()),
        parse_complex((DATA / "pure.complex").read_text()),
    ],
    ids=["k3", "graph6", "pure"],
)
def test_verify_reduction_certifies_without_ranking(monkeypatch, obj):
    """On a reduction's matrix the certified count is the dimension: no rank runs."""
    expected = verify_reduction(obj)

    def no_rank(*args, **kwargs):
        raise AssertionError("sparse_int_rank called on a certified matrix")

    monkeypatch.setattr(reductions, "sparse_int_rank", no_rank)
    assert verify_reduction(obj) == expected
    assert expected.identity_holds is True and expected.basis_verified is True


def test_verify_reduction_assembles_the_x_block(monkeypatch):
    """graph6's polynomial has degree 5: its X-row block has 47 rows, one
    per face, and 120 entries; orders 1..2 would have 61 and 120, the
    whole interior matrix 167 and 240."""
    built = recording_assemble(monkeypatch)
    report = verify_reduction(parse_graph((DATA / "graph6.graph").read_text()))
    assert report.identity_holds is True and report.basis_verified is True
    [matrix] = built
    assert (matrix.nrows, sum(map(len, matrix.entries))) == (47, 120)


def test_verify_reduction_k3():
    report = verify_reduction(K3)
    assert report.ind_count == 4
    assert report.face_count == 3
    assert report.dim_plus == 6
    assert report.identity_holds is True
    assert report.basis_verified is True


def test_verify_reduction_path3():
    report = verify_reduction(PATH3)
    assert report.ind_count == 5
    assert report.face_count == 2
    assert report.dim_plus == 4
    assert report.identity_holds is True


def test_verify_reduction_empty_graph_not_applicable():
    report = verify_reduction(Graph.make(4, []))
    assert report.identity_holds is None
    assert report.face_count == 0 and report.dim_plus == 0
    assert "not applicable" in report.note


def test_verify_reduction_complex_input():
    sc = SimplicialComplex.make(4, [[1, 2], [2, 3], [3, 4]])
    report = verify_reduction(sc)
    assert report.ind_count is None
    assert report.identity_holds is True
    assert report.dim_plus == 2 * report.face_count


def test_verify_reduction_graph_matches_its_complex():
    for g in all_graphs(4):
        if g.m == 0:
            continue
        via_graph = verify_reduction(g)
        via_complex = verify_reduction(graph_complex(g))
        assert via_graph.face_count == via_complex.face_count
        assert via_graph.dim_plus == via_complex.dim_plus
        assert via_graph.identity_holds is via_complex.identity_holds is True
        assert via_graph.basis_verified is via_complex.basis_verified is True


def test_exhaustive_identity_small():
    summary = exhaustive_verify(3)
    assert summary["graphs_checked"] == 8
    assert summary["all_hold"] is True
    assert summary["identity_failures"] == []


def test_exhaustive_lists_failures_by_edge_bitmask(monkeypatch):
    monkeypatch.setattr(reductions, "_x_block_dim", lambda matrix: (0, 0))
    summary = exhaustive_verify(3, check_basis=True)
    # the empty graph (bitmask 0) is not applicable and its basis is trivially fine
    assert summary["identity_failures"] == list(range(1, 8))
    assert summary["basis_failures"] == list(range(1, 8))
    assert summary["all_hold"] is False


# OEIS A000088: graphs on n unlabeled vertices.
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044]


def brute_force_labelings(n: int, bits: int) -> set[int]:
    """Edge bitmasks of every relabeling, one vertex permutation at a time."""
    pairs = list(combinations(range(1, n + 1), 2))
    edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
    images = set()
    for p in permutations(range(1, n + 1)):
        moved = {tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges}
        images.add(sum(1 << i for i, e in enumerate(pairs) if e in moved))
    return images


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_classes_count_and_cover_every_edge_set(n):
    classes = list(graph_classes(n))
    assert len(classes) == A000088[n]
    assert sum(size for _, size in classes) == 2 ** math.comb(n, 2)
    assert all(math.factorial(n) % size == 0 for _, size in classes)


@pytest.mark.parametrize("n", range(1, 7))
def test_graph_classes_match_networkx_atlas_by_edge_count(n):
    nx = pytest.importorskip("networkx")
    atlas = Counter(g.number_of_edges() for g in nx.graph_atlas_g() if g.number_of_nodes() == n)
    assert Counter(bits.bit_count() for bits, _ in graph_classes(n)) == atlas


def test_every_labeling_reports_as_its_class_representative():
    classes = dict(graph_classes(4))
    reports = {}
    for bits, g in enumerate(all_graphs(4)):
        orbit = brute_force_labelings(4, bits)
        rep = min(orbit)
        assert classes[rep] == len(orbit)
        report = verify_reduction(g)
        # the representative, least in its orbit, is met first
        assert reports.setdefault(rep, report) == report
    assert reports.keys() == classes.keys()


def test_exhaustive_failures_expand_to_every_labeling(monkeypatch):
    """An isomorphism-invariant fault: the class run lists what a run over
    every labeled graph lists."""
    real = reductions._x_block_dim

    def count_off(matrix):
        """One row too many (two, doubled by its transpose) on 7 X-rows;
        no certificate for six faces (6 X-rows, 12 counted), where the
        fallback rank, forced by a column count one too many, meets the
        identity."""
        if matrix.nrows == 6:
            return real(dataclasses.replace(matrix, ncols=matrix.ncols + 1))
        dim, count = real(matrix)
        return dim + 2 * (matrix.nrows == 7), count + 2 * (matrix.nrows == 7)

    monkeypatch.setattr(reductions, "_x_block_dim", count_off)
    labeled = [verify_reduction(g) for g in all_graphs(4)]
    identity = [bits for bits, r in enumerate(labeled) if r.identity_holds is False]
    basis = [bits for bits, r in enumerate(labeled) if not r.basis_verified]
    assert 0 < len(identity) < 63 and 0 < len(basis) < 63 and identity != basis
    summary = exhaustive_verify(4, check_basis=True)
    assert summary["identity_failures"] == identity
    assert summary["basis_failures"] == basis
    assert summary["all_hold"] is False


@pytest.mark.parametrize("n, classes", [(5, 34), (6, 156)])
def test_exhaustive_verifies_one_graph_per_class(monkeypatch, n, classes):
    calls = []
    real = reductions.verify_reduction

    def counting(g, **kwargs):
        calls.append(g)
        return real(g, **kwargs)

    monkeypatch.setattr(reductions, "verify_reduction", counting)
    summary = exhaustive_verify(n)
    assert len(calls) == classes
    assert summary["graphs_checked"] == 2 ** math.comb(n, 2)
    assert summary["all_hold"] is True


def test_exhaustive_classes_must_cover_every_edge_set(monkeypatch):
    real = reductions.graph_classes
    monkeypatch.setattr(reductions, "graph_classes", lambda n: list(real(n))[:-1])
    with pytest.raises(InvariantViolation):
        exhaustive_verify(4)


def test_all_graphs_enumeration_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


def test_all_graphs_index_is_edge_bitmask():
    possible = list(combinations(range(1, 5), 2))
    for bits, g in enumerate(all_graphs(4)):
        assert g.edges == {e for i, e in enumerate(possible) if bits >> i & 1}


def test_parse_graph_pipeline():
    g = parse_graph("p 3\n1 2\n2 3\n1 3")
    assert verify_reduction(g).identity_holds is True
