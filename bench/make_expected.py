"""Regenerate the checked-in expected answers in ``bench/expected/``.

    python3 bench/make_expected.py

For every workload and each seed in ``SEEDS`` the answers to the requests of
pass 0 come from ``reference.py``.  Before
they are written, they are cross-checked once with tools that share no code
with the benchmark or with ``pdrank``:

* exact-dim: every partial derivative is taken by ``sympy.Poly.diff`` and
  the rank of their coefficient matrix by ``sympy.Matrix.rank``;
* graph-verify: Ind(G) is one plus the number of cliques of the complement
  graph (``networkx.enumerate_all_cliques``), faces = 2^n - Ind(G) - 1, and
  the faces of a complex are counted as sets of ``itertools`` combinations;
* trace-bounds: the closed forms for Sym_{d,n} are compared with the explicit
  Gram matrix of ``reference.gram_traces``, which gives the traces of the
  other polynomials.

sympy and networkx are needed here only, never by ``run.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import sympy

import reference
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(20)

PROVENANCE = {
    "exact-dim": (
        "exact_dim: rank modulo 2^61-1 of the derivative matrix (bench/reference.py), "
        "equal for every request to sympy.Matrix.rank of the derivatives taken by "
        "sympy.Poly.diff (bench/make_expected.py)"
    ),
    "trace-bounds": (
        "tr_b, tr_b2: explicit Gram matrix M M^T (bench/reference.py), for Sym_{d,n} the "
        "paper's closed forms, checked against the Gram matrix; L_lower: closed form; "
        "sym-gap: sha256 of [n, d, k, u, v] from the closed forms"
    ),
    "graph-verify": (
        "ind_count, face_count: subset enumeration (bench/reference.py), equal to "
        "networkx clique counts of the complement graph and to itertools face sets; "
        "dim_plus = 2 * face_count; verify: all 2^C(n,2) graphs hold"
    ),
}


def sympy_dims(data: dict) -> dict[str, int]:
    """Ranks of the star, plus and order-k derivative spans, all by sympy."""
    gens = sympy.symbols(f"x1:{data['nvars'] + 1}")
    poly = sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in data["terms"].items()},
        *gens,
    )
    betas = {b for alpha in data["terms"] for b in product(*(range(a + 1) for a in alpha))}
    # Poly.diff() without arguments differentiates by the first generator.
    derivs = {b: poly.diff(*[(g, e) for g, e in zip(gens, b) if e]) if any(b) else poly for b in betas}

    def rank(order_ok) -> int:
        rows = [derivs[b].as_dict() for b in sorted(betas) if order_ok(sum(b))]
        cols = sorted({m for r in rows for m in r})
        return sympy.Matrix([[r.get(m, 0) for m in cols] for r in rows]).rank()

    degree, k = data["degree"], data["degree"] // 2
    return {
        "dim-star": rank(lambda s: True),
        "dim-plus": rank(lambda s: 1 <= s < degree),
        "dim-k": rank(lambda s: s == k),
    }


def cross_check(req: workloads.Request, expect: dict, cache: dict) -> None:
    if req.kind.startswith("dim-"):
        key = id(req.data["terms"])
        if key not in cache:
            cache[key] = sympy_dims(req.data)
        want = cache[key][req.kind]
        if req.kind == "dim-k" and req.data["k"] != req.data["degree"] // 2:
            raise SystemExit("dim-k request with an unexpected order")
        if expect["exact_dim"] != want:
            raise SystemExit(f"{req.argv}: reference {expect['exact_dim']} != sympy {want}")
    elif req.kind == "bounds-sym":
        traces = reference.gram_traces(req.data["terms"], req.data["k"])
        closed = tuple(Fraction(t) for t in reference.sym_traces(*req.data["sym"], req.data["k"]))
        if traces != closed:
            raise SystemExit(f"{req.argv}: Gram traces {traces} != closed forms {closed}")
    elif req.kind == "reduce-graph":
        g = nx.Graph()
        g.add_nodes_from(range(1, req.data["n"] + 1))
        g.add_edges_from(req.data["edges"])
        ind = 1 + sum(1 for _ in nx.enumerate_all_cliques(nx.complement(g)))
        if (expect["ind_count"], expect["face_count"]) != (ind, 2 ** req.data["n"] - ind - 1):
            raise SystemExit(f"{req.argv}: reference {expect} vs networkx Ind(G) = {ind}")
    elif req.kind == "reduce-complex":
        faces = {c for f in req.data["facets"] for r in range(1, len(f) + 1) for c in combinations(f, r)}
        if expect["face_count"] != len(faces):
            raise SystemExit(f"{req.argv}: reference {expect} vs {len(faces)} faces")


def main() -> int:
    for workload in workloads.WORKLOADS:
        seeds = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                requests = workloads.generate(workload, seed, 0, Path(tmp))
            expects = [reference.expected(r.kind, r.data) for r in requests]
            cache: dict = {}
            for req, expect in zip(requests, expects):
                cross_check(req, expect, cache)
            seeds[str(seed)] = expects
            print(f"{workload} seed {seed}: {len(expects)} answers cross-checked", file=sys.stderr)
        path = HERE / "expected" / f"{workload}.json"
        payload = {"provenance": PROVENANCE[workload], "seeds": seeds}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
