"""Graph -> complex -> polynomial constructions and their exact identities.

A graph G on [n] induces the simplicial complex generated by the edge
complements V \\ {u,v}; its faces are the complements of dependent sets,
so the face count equals 2^n - Ind(G) - 1 with Ind(G) the number of
independent sets (empty set included).  A pure complex with facets
F_1..F_m of size d maps to the multilinear polynomial

    f = sum_i Y_i * prod_{j in F_i} X_j

of degree d+1 in n+m variables, whose span of derivatives of orders
1..deg-1 has dimension exactly twice the face count, with an explicit
basis: the face monomials and the face derivatives of f.
``verify_reduction`` reads the basis off the derivatives of f by its
Y-free monomials, one row per face: the interior matrix is
block-diagonal and its Y-row block is their transpose.  These rows share
no column, so their count gives the dimension, and the exact rank is
only the fallback for a matrix whose rows overlap.
``partial_plus_basis`` and ``poly_stack_rank`` build and rank the basis
as polynomials, the reference the tests compare the rows against.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, compress, count, permutations
from operator import add, sub

from .combinat import all_sub_indices, cleared, packed_box
from .errors import InvariantViolation, ResourceLimitError
from .exact import (
    DEFAULT_MAX_COLS,
    DEFAULT_MAX_ROWS,
    DerivMatrix,
    assemble,
    sparse_int_rank,
)
from .polyio import ORDINARY, SCALED, Graph, SimplicialComplex, SparsePoly, Term

GROUND_CAP = 24


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
        return dict(vars(self))


def _check_ground(size: int, what: str) -> None:
    """The one ``GROUND_CAP`` rule: a ground set of ``size`` elements past it is refused."""
    if size > GROUND_CAP:
        raise ResourceLimitError(what, GROUND_CAP, size)


def count_independent_sets(g: Graph) -> int:
    """Exact Ind(G) (empty set included) by bitmask subset enumeration, n <= ``GROUND_CAP``."""
    _check_ground(g.n, "vertices")
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


def _face_marks(sc: SimplicialComplex) -> bytearray:
    """Byte per subset of the ground set, set to 1 exactly on the faces.

    Each facet marks its nonempty submasks; the table is 2^ground bytes
    whatever the facet sizes, so ``GROUND_CAP`` bounds its memory.  The
    one face enumerator, of ``count_faces`` and ``enumerate_faces``.
    """
    _check_ground(sc.ground, "ground")
    marks = bytearray(1 << sc.ground)
    for f in sc.facets:
        mask = sum(1 << (v - 1) for v in f)
        sub = mask
        while sub:
            marks[sub] = 1
            sub = (sub - 1) & mask
    return marks


def count_faces(sc: SimplicialComplex) -> int:
    """Number of nonempty subsets contained in some facet."""
    return _face_marks(sc).count(1)


def enumerate_faces(sc: SimplicialComplex) -> list[frozenset[int]]:
    """All faces (nonempty subsets of facets), sorted by size then vertices."""
    faces = [
        frozenset(i + 1 for i in range(sc.ground) if mask >> i & 1)
        for mask in compress(count(), _face_marks(sc))
    ]
    faces.sort(key=lambda f: (len(f), tuple(sorted(f))))
    return faces


def _poly_from_facets(
    n: int, facets: Sequence[frozenset[int]], y_names: list[str], basis: str = ORDINARY
) -> SparsePoly:
    """sum_i Y_i * X_{F_i} over the ground set [n], built canonical.

    Each Y_i is its own variable, so no two terms are alike, and the terms
    need only sorting.  f is multilinear with unit coefficients, so its
    scaled coefficients (c * prod(e_i!)) are its ordinary ones: ``basis``
    only labels the same terms, with no factorial computed.
    """
    width = n + len(facets)
    exps = []
    for idx, facet in enumerate(facets):
        e = [0] * width
        for v in facet:
            e[v - 1] = 1
        e[n + idx] = 1
        exps.append(tuple(e))
    one = Fraction(1)
    variables = (*(f"X{i}" for i in range(1, n + 1)), *y_names)
    terms = tuple([Term(one, e) for e in sorted(exps)])  # a list: see exact.assemble
    return SparsePoly(variables, terms, basis)


def complex_to_poly(sc: SimplicialComplex, basis: str = ORDINARY) -> SparsePoly:
    """Multilinear polynomial sum_i Y_i * prod_{j in F_i} X_j for a pure complex.

    Its terms are the same in either coefficient basis; ``basis`` labels them.
    """
    if not sc.is_pure:
        raise ValueError("complex must be pure (all facets the same size)")
    return _poly_from_facets(
        sc.ground, sc.facets, [f"Y{i}" for i in range(1, len(sc.facets) + 1)], basis
    )


def graph_to_poly(g: Graph) -> SparsePoly:
    """The edge-complement polynomial sum_{uv in E} Y_u_v * prod_{w not in {u,v}} X_w."""
    if g.n < 3:
        raise ValueError("graph polynomial needs at least 3 vertices")
    full = frozenset(range(1, g.n + 1))
    edges = g.sorted_edges()
    facets = [full - {u, v} for u, v in edges]
    return _poly_from_facets(g.n, facets, [f"Y_{u}_{v}" for u, v in edges])


def partial_plus_basis(sc: SimplicialComplex) -> list[SparsePoly]:
    """The 2 * |faces| polynomials spanning the order-1..deg-1 derivatives.

    For each face F: the monomial prod_{j in F} X_j, and the derivative of
    the complex polynomial with respect to all X_j, j in F.  Monomials
    first, then derivatives, faces in sorted order.  The derivatives are
    built in one pass over the facet terms: each term lands, with X_F
    divided out, in the derivative of every face F it contains.
    The distinct rows of the interior-order derivative matrix are the
    same vectors, which ``verify_reduction`` certifies from the
    derivatives alone, the X-row block (``_x_block_dim``); this is the
    tests' reference.
    """
    f = complex_to_poly(sc)
    nvars = len(f.vars)
    # X_F as an exponent vector: the monomial, and the derivative's multi-index
    face_exps = [
        tuple(1 if i < sc.ground and (i + 1) in face else 0 for i in range(nvars))
        for face in enumerate_faces(sc)
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


def poly_stack_rank(polys: list[SparsePoly]) -> int:
    """Rank of the coefficient matrix stacking the given polynomials.

    Rows are cleared to integers per polynomial (row scaling preserves
    rank); columns are the union of monomials in lexicographic order.
    The tests' reference rank of ``partial_plus_basis``.
    """
    all_exps = sorted({t.exps for p in polys for t in p.terms})
    col_index = {e: i for i, e in enumerate(all_exps)}
    rows = [
        dict(zip([col_index[t.exps] for t in p.terms], cleared(t.coef for t in p.terms)[1]))
        for p in polys
    ]
    return sparse_int_rank(rows)


def _x_block_dim(matrix: DerivMatrix) -> tuple[int, int | None]:
    """dim_+ of f = sum_i Y_i * X_{F_i} from its X-row block, and the count its certificate gives.

    ``matrix`` holds the derivatives of f by the Y-free monomials X_S, S
    a nonempty subset of some facet: the X-row block.  Returns dim_+ and
    the certified count, None where the certificate fails.

    *The blocks.*  Every term of f holds one Y, and f is multilinear, so
    an interior-order derivative that does not vanish is taken by X_S or
    by Y_i * X_T with T a proper subset of F_i.  A row Y_i * X_T reaches
    only the Y-free column X_{F_i minus T}, and a row X_S only columns
    Y_i * X_{F_i minus S} with one Y: the interior matrix is
    block-diagonal, an X-row block beside a Y-row block.  In the scaled
    basis every entry is 1.  Row Y_i * X_T has column X_U, and row X_U
    has column Y_i * X_T, in both cases exactly when T and U split F_i;
    so the Y-row block is the transpose of the X-row block, and
    dim_+ = 2 * rank(X-row block).

    *The certificate.*  Column Y_i * X_T of row X_S has T = F_i minus S,
    so the column determines S: rows with different S never share a
    column.  The stored matrix has no zero row and every column lies in
    some row, so its entry count is ``ncols`` exactly when no column lies
    in two rows; rows with pairwise disjoint supports are independent,
    and dim_+ = 2 * nrows.  No row is hashed.  Row X_S is the face
    derivative of S and each of its columns, as a row of the Y-row
    block, is the face monomial X_S, so the count is 2 * faces exactly
    when these derivatives of f are the explicit basis.  A matrix that
    fails the check, which a correct assembly never gives, is ranked
    exactly instead: dim_+ = 2 * ``sparse_int_rank`` of its rows.
    """
    if sum(map(len, matrix.entries)) == matrix.ncols:
        return 2 * matrix.nrows, 2 * matrix.nrows
    return 2 * sparse_int_rank(list(matrix.entries)), None


def verify_reduction(
    obj: Graph | SimplicialComplex,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
    max_cols: int = DEFAULT_MAX_COLS,
) -> ReductionReport:
    """Run the full construction and check the face-count identity exactly.

    For graphs: dim = 2 * (2^n - Ind(G) - 1) and faces = 2^n - Ind(G) - 1.
    For pure complexes: dim = 2 * faces.  A graph goes through its edge
    complement complex; then one polynomial, built in the scaled basis,
    gives one matrix: its derivatives by the Y-free monomials, each
    term's X-part drawn as one box of sub-indices, the Y-rows being their
    transpose (:func:`_x_block_dim`).  When its rows share no column
    their count gives ``dim_plus``; otherwise the exact rank does, under
    its default budget.  ``basis_verified`` says the certificate held and
    counted 2 * faces: the explicit basis.  The caps act on this block.
    The faces and independent sets (2^n work each) are counted after the
    matrix, so its caps refuse a large input first.
    """
    if isinstance(obj, Graph):
        _check_ground(obj.n, "vertices")
        if obj.m:
            sc = graph_complex(obj)
            note = "facets have n-2 elements (faces of dimension n-3 under the |X|-1 convention)"
        else:
            sc = SimplicialComplex.make(obj.n, ())
            note = "identity not applicable: empty edge set gives the zero polynomial"
    else:
        if not obj.is_pure:
            raise ValueError("complex must be pure")
        _check_ground(obj.ground, "ground")
        sc, note = obj, ""
        if not obj.facets:
            note = "identity not applicable: empty complex gives the zero polynomial"
    dim_plus, certified = 0, None
    if sc.facets:
        y_free = (0,) * len(sc.facets)

        def x_sub_indices(alpha, units):
            return packed_box(alpha[: sc.ground] + y_free, units, drop_zero=True)

        matrix = assemble(
            complex_to_poly(sc, SCALED), x_sub_indices, max_rows=max_rows, max_cols=max_cols
        )
        dim_plus, certified = _x_block_dim(matrix)
    ind = count_independent_sets(obj) if isinstance(obj, Graph) else None
    faces = count_faces(sc)
    holds = dim_plus == 2 * faces and (ind is None or faces == 2**sc.ground - ind - 1)
    return ReductionReport(
        n=sc.ground,
        m=len(sc.facets),
        ind_count=ind,
        face_count=faces,
        dim_plus=dim_plus,
        identity_holds=holds if sc.facets else None,
        basis_verified=certified == 2 * faces if sc.facets else True,
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


def exhaustive_verify(n: int, *, check_basis: bool = False) -> dict:
    """Check the identity for every edge set on [n]; returns a summary dict.

    Both sides of the identity are invariant under relabeling the
    vertices, so one graph per isomorphism class is verified
    (``graph_classes``): 34 instead of 1024 at n=5, 1044 instead of 2^21
    at n=7.  ``graphs_checked`` is the sum of the orbit sizes, checked to
    equal 2^C(n,2) (``InvariantViolation`` otherwise).  Graphs with no
    edges are counted separately (the identity is not applicable there).
    A failing class is expanded into all its labelings, so failures are
    listed by edge bitmask (see ``all_graphs``) exactly as a check of
    every labeled graph would list them.  The classes are enumerated
    first, then their representatives are verified in one serial loop:
    interleaving the orbit marking with the verification measured about
    10% slower at n=7 on a 2-core host.
    """
    classes = list(graph_classes(n))
    total = 1 << (n * (n - 1) // 2)
    covered = sum(size for _, size in classes)
    if covered != total:
        raise InvariantViolation(
            f"isomorphism classes on {n} vertices cover {covered} of {total} edge sets"
        )
    failures: list[int] = []
    basis_failures: list[int] = []
    for bits, _ in classes:
        report = verify_reduction(_graph_from_bits(n, bits))
        if report.identity_holds is False:
            failures.append(bits)
        if check_basis and not report.basis_verified:
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
