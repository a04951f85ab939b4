"""Graph/complex constructions and the face-count identity."""

import math
from collections import Counter
from itertools import combinations, permutations

import pytest

from pdrank import (
    Graph,
    OrderSpec,
    SimplicialComplex,
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
    sparse_int_rank,
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
        assert dim_partials(f, OrderSpec.interior()) == 2 * faces
        assert dim_partials(f, OrderSpec.all_orders()) == 2 * faces + 2


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


def test_face_basis_rows_are_the_explicit_basis():
    """The bitmask rows are the coefficient rows of ``partial_plus_basis``,
    up to row and column order, and rank as they do at 2 * faces.  Every
    column holds one row, so the singleton peel finds the whole rank and
    Bareiss never runs (``budget=0``)."""
    complexes = random_pure_complexes(seed=31, count=10, max_ground=6, max_facets=5)
    complexes += random_pure_complexes(seed=37, count=15, max_ground=7, max_facets=6)
    complexes += [graph_complex(g) for n in (3, 4, 5) for g in all_graphs(n) if g.m]

    def column(exps, ground):
        """The row key of a basis monomial: its X mask, Y_g as (g + 1) << ground."""
        x = sum(1 << i for i in range(ground) if exps[i])
        y = next((i + 1 for i, e in enumerate(exps[ground:]) if e), 0)
        return y << ground | x

    for sc in complexes:
        marks = reductions._face_marks(sc, reductions.DEFAULT_GROUND_CAP)
        rows = reductions._face_basis_rows(sc, marks)
        faces = marks.count(1)
        basis = partial_plus_basis(sc)
        polys = Counter(
            frozenset((column(t.exps, sc.ground), t.coef) for t in p.terms) for p in basis
        )
        assert Counter(frozenset(row.items()) for row in rows) == polys
        assert max(Counter(j for row in rows for j in row).values()) == 1
        assert sparse_int_rank(rows, budget=0) == poly_stack_rank(basis) == 2 * faces


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
        via_graph = verify_reduction(g, check_basis=False)
        via_complex = verify_reduction(graph_complex(g), check_basis=False)
        assert via_graph.face_count == via_complex.face_count
        assert via_graph.dim_plus == via_complex.dim_plus
        assert via_graph.identity_holds is via_complex.identity_holds is True


def test_exhaustive_identity_small():
    summary = exhaustive_verify(3)
    assert summary["graphs_checked"] == 8
    assert summary["all_hold"] is True
    assert summary["identity_failures"] == []


def test_exhaustive_parallel_matches_serial():
    serial = exhaustive_verify(3, check_basis=True, threads=1)
    parallel = exhaustive_verify(3, check_basis=True, threads=2)
    assert serial == parallel


def test_exhaustive_lists_failures_by_edge_bitmask(monkeypatch):
    monkeypatch.setattr(reductions, "dim_partials", lambda *a, **kw: 0)
    monkeypatch.setattr(reductions, "sparse_int_rank", lambda *a, **kw: 0)
    summary = exhaustive_verify(3, check_basis=True)
    # the empty graph (bitmask 0) is not applicable and its basis is trivially fine
    assert summary["identity_failures"] == list(range(1, 8))
    assert summary["basis_failures"] == list(range(1, 8))
    assert summary["all_hold"] is False


def test_exhaustive_threads_capped_at_cpu_count(monkeypatch):
    import concurrent.futures

    seen = []

    class RecordingExecutor:
        """Runs the map in this process and records the requested pool size."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(reductions.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    summary = exhaustive_verify(3, threads=100000)
    assert seen == [2]
    assert summary == exhaustive_verify(3, threads=1)


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
    real_dim, real_rank = reductions.dim_partials, reductions.sparse_int_rank

    def dim_off_on_three_edges(f, *args, **kwargs):
        return real_dim(f, *args, **kwargs) + (len(f.terms) == 3)

    def rank_off_on_six_faces(rows, *args, **kwargs):
        return real_rank(rows, *args, **kwargs) + (len(rows) == 12)

    monkeypatch.setattr(reductions, "dim_partials", dim_off_on_three_edges)
    monkeypatch.setattr(reductions, "sparse_int_rank", rank_off_on_six_faces)
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
