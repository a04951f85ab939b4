#!/usr/bin/env python3
"""Graphs, face counting, and derivative dimensions that count things.

The complex generated by edge complements of a graph G has exactly
2^n - Ind(G) - 1 faces, and the associated multilinear polynomial has an
interior-derivative span of dimension exactly twice the face count.  So
computing that dimension exactly counts independent sets -- the reason no
fast exact algorithm exists in general.  At desk scale we verify the
identity end to end.
"""

from pdrank import (
    Graph,
    count_faces,
    count_independent_sets,
    format_poly,
    graph_complex,
    graph_to_poly,
    verify_reduction,
)
from pdrank.reductions import exhaustive_verify

print("=" * 70)
print("1. The triangle, step by step")
print("=" * 70)
k3 = Graph.make(3, [(1, 2), (2, 3), (1, 3)])
sc = graph_complex(k3)
print(f"   edge complements -> facets {[sorted(f) for f in sc.facets]}")
print(f"   polynomial: {format_poly(graph_to_poly(k3), header=False)}")
report = verify_reduction(k3)
print(f"   Ind(G) = {report.ind_count}, faces = {report.face_count}, "
      f"interior dim = {report.dim_plus}")
print(f"   identity 2*(2^3 - {report.ind_count} - 1) = {report.dim_plus}: "
      f"{report.identity_holds}")
print(f"   2*faces distinct derivative rows, no column shared: {report.basis_verified}")

print()
print("=" * 70)
print("2. A few named graphs")
print("=" * 70)
graphs = {
    "path P3": Graph.make(3, [(1, 2), (2, 3)]),
    "cycle C4": Graph.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "star K1,3": Graph.make(4, [(1, 2), (1, 3), (1, 4)]),
    "complete K5": Graph.make(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]),
}
for name, g in graphs.items():
    r = verify_reduction(g)
    print(f"   {name:>12}: Ind={r.ind_count:3d} faces={r.face_count:3d} "
          f"dim={r.dim_plus:3d} identity={r.identity_holds}")

print()
print("=" * 70)
print("3. Exhaustive verification over every graph on 3 and 4 vertices")
print("=" * 70)
for n in (3, 4):
    summary = exhaustive_verify(n, check_basis=True)
    print(f"   n={n}: {summary['graphs_checked']} edge sets, "
          f"identity failures: {summary['identity_failures']}, "
          f"all hold: {summary['all_hold']}")

print()
print("=" * 70)
print("4. Pure counting at a larger size (no matrices): Petersen graph")
print("=" * 70)
petersen = Graph.make(
    10,
    [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),      # outer cycle
        (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),    # inner star
        (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),     # spokes
    ],
)
ind = count_independent_sets(petersen)
faces = count_faces(graph_complex(petersen))
print(f"   Ind(Petersen) = {ind}")
print(f"   faces of the edge-complement complex = {faces}")
print(f"   2^10 - Ind - 1 = {2**10 - ind - 1}  (matches: {faces == 2**10 - ind - 1})")
print(f"   the derivative dimension of the associated polynomial is 2*{faces}")
