"""Graph -> complex -> polynomial constructions and their exact identities.

A graph G on [n] induces the simplicial complex generated by the edge
complements V \\ {u,v}; its faces are the complements of dependent sets,
so the face count equals 2^n - Ind(G) - 1 with Ind(G) the number of
independent sets (empty set included).  A pure complex with facets
F_1..F_m of size d maps to the multilinear polynomial

    f = sum_i Y_i * prod_{j in F_i} X_j

of degree d+1 in n+m variables, whose span of derivatives of orders
1..deg-1 has dimension exactly twice the face count, with an explicit
basis: the face monomials and the face derivatives of f.  Everything here
is verified against the exact rank oracle.  ``verify_reduction`` checks
the basis on integer rows built from the face bitmasks;
``partial_plus_basis`` and ``poly_stack_rank`` build and rank it as
polynomials, the reference the tests compare the rows against.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, permutations
from operator import add, sub

from .combinat import all_sub_indices, lcm_all
from .errors import InvariantViolation, ResourceLimitError
from .exact import (
    DEFAULT_ELIMINATION_BUDGET,
    DEFAULT_MAX_COLS,
    DEFAULT_MAX_ROWS,
    OrderSpec,
    dim_partials,
    sparse_int_rank,
)
from .polyio import ORDINARY, Graph, SimplicialComplex, SparsePoly, Term

DEFAULT_GROUND_CAP = 24


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one end-to-end construction check.

    ``identity_holds`` is None when the identity is not applicable (empty
    complex); ``ind_count`` is None for complex inputs.  For graphs the
    identity asserts both dim = 2 * faces and faces = 2^n - Ind(G) - 1.
    """

    n: int
    m: int
    ind_count: int | None
    face_count: int
    dim_plus: int
    identity_holds: bool | None
    basis_verified: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "ind_count": self.ind_count,
            "face_count": self.face_count,
            "dim_plus": self.dim_plus,
            "identity_holds": self.identity_holds,
            "basis_verified": self.basis_verified,
            "note": self.note,
        }


def count_independent_sets(g: Graph, *, cap: int = DEFAULT_GROUND_CAP) -> int:
    """Exact Ind(G) (empty set included) by bitmask subset enumeration."""
    if g.n > cap:
        raise ResourceLimitError("vertices", cap, g.n)
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    size = 1 << n
    independent = bytearray(size)
    independent[0] = 1
    count = 1
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        if independent[rest] and not (adj[low] & rest):
            independent[mask] = 1
            count += 1
    return count


def graph_complex(g: Graph) -> SimplicialComplex:
    """Complex generated by the complements of the edges of G (n >= 3)."""
    if g.n < 3:
        raise ValueError("graph complex needs at least 3 vertices")
    full = set(range(1, g.n + 1))
    return SimplicialComplex.make(g.n, (full - {u, v} for u, v in g.edges))


def _face_marks(sc: SimplicialComplex, cap: int) -> bytearray:
    """Byte per subset of the ground set, set to 1 exactly on the faces.

    Each facet marks its nonempty submasks; the table is 2^ground bytes
    whatever the facet sizes, so the ground cap bounds its memory.
    """
    if sc.ground > cap:
        raise ResourceLimitError("ground", cap, sc.ground)
    marks = bytearray(1 << sc.ground)
    for f in sc.facets:
        mask = sum(1 << (v - 1) for v in f)
        sub = mask
        while sub:
            marks[sub] = 1
            sub = (sub - 1) & mask
    return marks


def _face_masks(marks: bytearray) -> Iterator[int]:
    """The faces marked in a :func:`_face_marks` table, as ascending bitmasks."""
    mask = marks.find(1)
    while mask != -1:
        yield mask
        mask = marks.find(1, mask + 1)


def count_faces(sc: SimplicialComplex, *, cap: int = DEFAULT_GROUND_CAP) -> int:
    """Number of nonempty subsets contained in some facet."""
    return _face_marks(sc, cap).count(1)


def _face_basis_rows(sc: SimplicialComplex, marks: bytearray) -> list[dict[int, int]]:
    """Integer coefficient rows of the explicit basis, built from face bitmasks.

    One row {X_F: 1} per face F marked in ``marks``, then the derivative
    of every face: the term Y_g * X_G of facet G (index g) contributes
    Y_g * X_{G minus F} to the derivative of each nonempty submask F of G.
    Column keys: X_F is F's mask, Y_g * X_H is (g + 1) << ground | H.
    These are the coefficient vectors of the polynomials
    :func:`partial_plus_basis` returns, with rows and columns permuted, so
    the rank is the same.  Each column holds one row.
    """
    rows = [{face: 1} for face in _face_masks(marks)]
    derivatives: dict[int, dict[int, int]] = {}
    for g, facet in enumerate(sc.facets):
        mask = sum(1 << (v - 1) for v in facet)
        y = (g + 1) << sc.ground
        sub = mask
        while sub:
            derivatives.setdefault(sub, {})[y | (mask ^ sub)] = 1
            sub = (sub - 1) & mask
    rows.extend(derivatives.values())
    return rows


def enumerate_faces(
    sc: SimplicialComplex, *, cap: int = DEFAULT_GROUND_CAP
) -> list[frozenset[int]]:
    """All faces (nonempty subsets of facets), sorted by size then vertices."""
    faces = [
        frozenset(i + 1 for i in range(sc.ground) if mask >> i & 1)
        for mask in _face_masks(_face_marks(sc, cap))
    ]
    faces.sort(key=lambda f: (len(f), tuple(sorted(f))))
    return faces


def _poly_from_facets(
    n: int, facets: list[frozenset[int]], y_names: list[str]
) -> SparsePoly:
    x_names = [f"X{i}" for i in range(1, n + 1)]
    variables = x_names + y_names
    items = []
    for idx, facet in enumerate(facets):
        exps = [0] * len(variables)
        for v in facet:
            exps[v - 1] = 1
        exps[n + idx] = 1
        items.append((tuple(exps), 1))
    return SparsePoly.from_terms(variables, items)


def complex_to_poly(sc: SimplicialComplex) -> SparsePoly:
    """Multilinear polynomial sum_i Y_i * prod_{j in F_i} X_j for a pure complex."""
    if not sc.is_pure:
        raise ValueError("complex must be pure (all facets the same size)")
    facets = list(sc.facets)
    return _poly_from_facets(
        sc.ground, facets, [f"Y{i}" for i in range(1, len(facets) + 1)]
    )


def graph_to_poly(g: Graph) -> SparsePoly:
    """The edge-complement polynomial sum_{uv in E} Y_u_v * prod_{w not in {u,v}} X_w."""
    if g.n < 3:
        raise ValueError("graph polynomial needs at least 3 vertices")
    full = frozenset(range(1, g.n + 1))
    edges = g.sorted_edges()
    facets = [full - {u, v} for u, v in edges]
    return _poly_from_facets(g.n, facets, [f"Y_{u}_{v}" for u, v in edges])


def partial_plus_basis(
    sc: SimplicialComplex,
    *,
    cap: int = DEFAULT_GROUND_CAP,
) -> list[SparsePoly]:
    """The 2 * |faces| polynomials spanning the order-1..deg-1 derivatives.

    For each face F: the monomial prod_{j in F} X_j, and the derivative of
    the complex polynomial with respect to all X_j, j in F.  Monomials
    first, then derivatives, faces in sorted order.  The derivatives are
    built in one pass over the facet terms: each term lands, with X_F
    divided out, in the derivative of every face F it contains.
    ``verify_reduction`` ranks the same vectors as bitmask rows
    (``_face_basis_rows``); this is the tests' reference.
    """
    f = complex_to_poly(sc)
    nvars = len(f.vars)
    # X_F as an exponent vector: the monomial, and the derivative's multi-index
    face_exps = [
        tuple(1 if i < sc.ground and (i + 1) in face else 0 for i in range(nvars))
        for face in enumerate_faces(sc, cap=cap)
    ]
    # f is multilinear, so its scaled and ordinary coefficients agree.
    pad = (0,) * (nvars - sc.ground)
    by_face: dict[tuple[int, ...], list[Term]] = {}
    for t in f.terms:
        for face_x in all_sub_indices(t.exps[: sc.ground]):
            beta = face_x + pad
            by_face.setdefault(beta, []).append(Term(t.coef, tuple(map(sub, t.exps, beta))))
    one = Fraction(1)
    monomials = [SparsePoly(f.vars, (Term(one, beta),), ORDINARY) for beta in face_exps]
    derivatives = [SparsePoly(f.vars, tuple(by_face[beta]), ORDINARY) for beta in face_exps]
    return monomials + derivatives


def poly_stack_rank(
    polys: list[SparsePoly],
    *,
    budget: int = DEFAULT_ELIMINATION_BUDGET,
) -> int:
    """Rank of the coefficient matrix stacking the given polynomials.

    Rows are cleared to integers per polynomial (row scaling preserves
    rank); columns are the union of monomials in lexicographic order.
    The tests' reference rank of ``partial_plus_basis``.
    """
    all_exps = sorted({t.exps for p in polys for t in p.terms})
    col_index = {e: i for i, e in enumerate(all_exps)}
    rows = []
    for p in polys:
        clear = lcm_all([t.coef.denominator for t in p.terms])
        rows.append(
            {
                col_index[t.exps]: t.coef.numerator * (clear // t.coef.denominator)
                for t in p.terms
            }
        )
    return sparse_int_rank(rows, budget=budget)


def verify_reduction(
    obj: Graph | SimplicialComplex,
    *,
    check_basis: bool = True,
    cap: int = DEFAULT_GROUND_CAP,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_cols: int = DEFAULT_MAX_COLS,
    budget: int = DEFAULT_ELIMINATION_BUDGET,
) -> ReductionReport:
    """Run the full construction and check the face-count identity exactly.

    For graphs: dim = 2 * (2^n - Ind(G) - 1) and faces = 2^n - Ind(G) - 1.
    For pure complexes: dim = 2 * faces.  ``basis_verified`` additionally
    confirms the explicit basis has full rank 2 * faces, as the exact rank
    of its coefficient rows built from the face bitmasks
    (``_face_basis_rows``).
    """
    if isinstance(obj, Graph):
        ind: int | None = count_independent_sets(obj, cap=cap)
        if obj.m:
            sc, f = graph_complex(obj), graph_to_poly(obj)
            note = "facets have n-2 elements (faces of dimension n-3 under the |X|-1 convention)"
        else:
            sc, f = SimplicialComplex.make(obj.n, ()), None
            note = "identity not applicable: empty edge set gives the zero polynomial"
    else:
        if not obj.is_pure:
            raise ValueError("complex must be pure")
        sc, ind = obj, None
        if obj.facets:
            f, note = complex_to_poly(obj), ""
        else:
            f, note = None, "identity not applicable: empty complex gives the zero polynomial"
    marks = _face_marks(sc, cap)
    faces = marks.count(1)
    dim_plus, identity, basis_ok = 0, None, True
    if f is not None:
        dim_plus = dim_partials(
            f, OrderSpec.interior(), max_rows=max_rows, max_cols=max_cols, budget=budget
        )
        identity = dim_plus == 2 * faces and (ind is None or faces == 2**sc.ground - ind - 1)
        if check_basis:
            rows = _face_basis_rows(sc, marks)
            basis_ok = sparse_int_rank(rows, budget=budget) == 2 * faces
    return ReductionReport(
        n=sc.ground,
        m=len(sc.facets),
        ind_count=ind,
        face_count=faces,
        dim_plus=dim_plus,
        identity_holds=identity,
        basis_verified=basis_ok,
        note=note,
    )


def _vertex_pairs(n: int) -> list[tuple[int, int]]:
    """The C(n,2) possible edges on [n]; bit i of an edge bitmask is the i-th."""
    return list(combinations(range(1, n + 1), 2))


def _graph_from_bits(n: int, bits: int) -> Graph:
    """The graph on [n] with edge bitmask ``bits``."""
    return Graph.make(n, [e for i, e in enumerate(_vertex_pairs(n)) if bits >> i & 1])


def all_graphs(n: int) -> Iterator[Graph]:
    """Every graph on [n], one per edge subset; the i-th has edge bitmask i."""
    for bits in range(1 << (n * (n - 1) // 2)):
        yield _graph_from_bits(n, bits)


_CHUNK = 7


def _labelings(n: int) -> Callable[[int], set[int]]:
    """Function from an edge bitmask on [n] to those of all its relabelings.

    For each of the n! vertex permutations t and each run of ``_CHUNK``
    edge bits, a table gives the image under t of every value of the run;
    it is stored transposed, one array over t per run value.  The images
    of runs are disjoint, so the bitmask of every relabeling at once is
    the element-wise sum of one array per run.
    """
    pairs = _vertex_pairs(n)
    index = {}
    for i, (u, v) in enumerate(pairs):
        index[u, v] = index[v, u] = i
    perms = list(permutations(range(1, n + 1)))
    # edge_images[i][t]: the bit of edge i's image under the t-th permutation
    edge_images = [[1 << index[p[u - 1], p[v - 1]] for p in perms] for u, v in pairs]
    tables = []
    for lo in range(0, max(len(pairs), 1), _CHUNK):
        run = edge_images[lo : lo + _CHUNK]
        table = [array("q", [0]) * len(perms)]
        for value in range(1, 1 << len(run)):
            low = (value & -value).bit_length() - 1
            table.append(array("q", map(add, table[value & (value - 1)], run[low])))
        tables.append(table)
    mask = (1 << _CHUNK) - 1

    def labelings(bits: int) -> set[int]:
        parts = [t[bits >> (_CHUNK * k) & mask] for k, t in enumerate(tables)]
        return set(reduce(partial(map, add), parts))

    return labelings


def graph_classes(n: int) -> Iterator[tuple[int, int]]:
    """One graph per isomorphism class on [n], as (edge bitmask, orbit size).

    The representative is the least edge bitmask of its class (see
    ``all_graphs``); the orbit size n!/|Aut(G)| is the number of labeled
    graphs in the class.  Orbit marking: a byte per edge bitmask, set on
    the whole orbit of each unmarked bitmask, in ascending order.  The
    tables take about 2^7·n!·C(n,2)/7 8-byte integers (1.5 MB at n=6,
    16 MB at n=7); the marking, 2^C(n,2) steps.  Class counts are
    OEIS A000088: 1, 1, 2, 4, 11, 34, 156, 1044 for n = 0..7.
    """
    labelings = _labelings(n)
    marks = bytearray(1 << (n * (n - 1) // 2))
    bits = 0
    while bits != -1:
        orbit = labelings(bits)
        for image in orbit:
            marks[image] = 1
        yield bits, len(orbit)
        bits = marks.find(0, bits + 1)


def _identity_and_basis_hold(g: Graph, check_basis: bool) -> tuple[bool, bool]:
    report = verify_reduction(g, check_basis=check_basis)
    return report.identity_holds is not False, report.basis_verified


def exhaustive_verify(
    n: int,
    *,
    check_basis: bool = False,
    threads: int = 1,
) -> dict:
    """Check the identity for every edge set on [n]; returns a summary dict.

    Both sides of the identity are invariant under relabeling the
    vertices, so one graph per isomorphism class is verified
    (``graph_classes``): 34 instead of 1024 at n=5, 1044 instead of 2^21
    at n=7.  ``graphs_checked`` is the sum of the orbit sizes, checked to
    equal 2^C(n,2) (``InvariantViolation`` otherwise).  Graphs with no
    edges are counted separately (the identity is not applicable there).
    A failing class is expanded into all its labelings, so failures are
    listed by edge bitmask (see ``all_graphs``) exactly as a check of
    every labeled graph would list them.  With threads > 1, capped at the
    CPU count, the representatives are verified in worker processes;
    results are merged in deterministic order.
    """
    classes = list(graph_classes(n))
    total = 1 << (n * (n - 1) // 2)
    covered = sum(size for _, size in classes)
    if covered != total:
        raise InvariantViolation(
            f"isomorphism classes on {n} vertices cover {covered} of {total} edge sets"
        )
    check = partial(_identity_and_basis_hold, check_basis=check_basis)
    graphs = [_graph_from_bits(n, bits) for bits, _ in classes]
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        results = _parallel_map(check, graphs, threads)
    else:
        results = map(check, graphs)
    failures: list[int] = []
    basis_failures: list[int] = []
    for (bits, _), (ok, basis_ok) in zip(classes, results):
        if not ok:
            failures.append(bits)
        if not basis_ok:
            basis_failures.append(bits)
    if failures or basis_failures:
        labelings = _labelings(n)
        failures, basis_failures = (
            sorted(chain.from_iterable(map(labelings, reps))) for reps in (failures, basis_failures)
        )
    return {
        "n": n,
        "graphs_checked": covered,
        "nonempty_graphs": covered - 1,
        "identity_failures": failures,
        "basis_failures": basis_failures if check_basis else None,
        "all_hold": not failures and not (check_basis and basis_failures),
    }


def _parallel_map(fn, jobs, threads: int):
    """Process-pool map with a serial fallback; result order is the job order."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs, chunksize=1))
    except OSError:
        return [fn(j) for j in jobs]
