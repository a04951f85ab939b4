"""Expected answers for benchmark requests, computed without the timed layers.

Nothing here calls ``pdrank``:

* derivative-span dimensions: rank modulo the prime 2^61 - 1 of a derivative
  matrix built here (ordinary basis, falling-factorial entries).  A rank
  modulo p never exceeds the rational rank, and the answers for the seeds in
  ``expected/`` were cross-checked against ``sympy.Matrix.rank``;
* Tr(B) and Tr(B^2): the explicit Gram matrix M M^T for multilinear input,
  and the closed forms of the paper for Sym_{d,n};
* graphs and complexes: independent sets and faces by subset enumeration,
  and dim = 2 * faces, the identity the program is meant to confirm.

``check`` compares one JSON report with its expectation, including the bound
sandwich and the ``identity_holds`` field every report carries.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

PRIME = (1 << 61) - 1


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def rank_mod_p(rows: list[dict[int, int]]) -> int:
    """Rank over GF(PRIME) of sparse rows {column: value}."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: v % PRIME for j, v in row.items() if v % PRIME}
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = pow(row[col], -1, PRIME)
                pivots[col] = {j: v * inv % PRIME for j, v in row.items()}
                break
            factor = row[col]
            for j, v in prow.items():
                w = (row.get(j, 0) - factor * v) % PRIME
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def derivative_dim(terms: dict[tuple[int, ...], Fraction], orders: range) -> int:
    """Dimension of the span of the partial derivatives of the given orders."""
    betas = set()
    for alpha in terms:
        for beta in product(*(range(a + 1) for a in alpha)):
            if sum(beta) in orders:
                betas.add(beta)
    columns: dict[tuple[int, ...], int] = {}
    rows = []
    for beta in sorted(betas):
        row = {}
        for alpha, coef in terms.items():
            if any(b > a for b, a in zip(beta, alpha)):
                continue
            falling = 1
            for a, b in zip(alpha, beta):
                for t in range(a - b + 1, a + 1):
                    falling *= t
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            col = columns.setdefault(gamma, len(columns))
            row[col] = coef.numerator * falling * pow(coef.denominator, -1, PRIME)
        rows.append(row)
    return rank_mod_p(rows)


def gram_traces(terms: dict[tuple[int, ...], Fraction], k: int) -> tuple[Fraction, Fraction]:
    """Tr(B), Tr(B^2) of B = M^T M for a multilinear polynomial, from M M^T."""
    clear = lcm(*(c.denominator for c in terms.values()))
    columns: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = defaultdict(list)
    for alpha, coef in terms.items():
        a = coef.numerator * (clear // coef.denominator)
        support = [i for i, e in enumerate(alpha) if e]
        for rows in combinations(support, k):
            gamma = tuple(0 if i in rows else e for i, e in enumerate(alpha))
            columns[gamma].append((rows, a))
    tr_b = 0
    gram: dict[tuple, int] = defaultdict(int)
    for entries in columns.values():
        for i_rows, a in entries:
            tr_b += a * a
            for j_rows, b in entries:
                gram[i_rows, j_rows] += a * b
    tr_b2 = sum(v * v for v in gram.values())
    return Fraction(tr_b, clear**2), Fraction(tr_b2, clear**4)


def sym_traces(n: int, d: int, k: int) -> tuple[int, int]:
    """Closed forms of Tr(B) and Tr(B^2) for Sym_{d,n} at order k."""
    tr_b = comb(n - k, d - k) * comb(n, k)
    tr_b2 = sum(
        comb(n, k) * comb(k, t) * comb(n - k, k - t) * comb(n - 2 * k + t, d - k) ** 2
        for t in range(k + 1)
    )
    return tr_b, tr_b2


def closed_form_l(terms: dict[tuple[int, ...], Fraction], k: int) -> Fraction:
    """L(f) = sum C(sup, k) a^2 / (|terms| * sum a^2), multilinear input."""
    num = sum(comb(sum(1 for e in alpha if e), k) * c * c for alpha, c in terms.items())
    return num / (len(terms) * sum(c * c for c in terms.values()))


def independent_sets(n: int, edges: list[tuple[int, int]]) -> int:
    """Ind(G), the empty set included."""
    masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in edges]
    return sum(1 for s in range(1 << n) if all(s & m != m for m in masks))


def _faces(facet_masks: list[int]) -> int:
    seen = set()
    for m in facet_masks:
        sub = m
        while sub:
            seen.add(sub)
            sub = (sub - 1) & m
    return len(seen)


def graph_faces(n: int, edges: list[tuple[int, int]]) -> int:
    """Faces of the complex generated by the edge complements V - {u, v}."""
    full = (1 << n) - 1
    return _faces([full & ~((1 << (u - 1)) | (1 << (v - 1))) for u, v in edges])


def _gap_points(points: list[tuple[int, int, int]]) -> str:
    """Digest of the expected (n, d, k, u, v) of a gap series."""
    rows = []
    for n, d, k in points:
        tr_b, tr_b2 = sym_traces(n, d, k)
        rows.append([n, d, k, min(comb(n, k), comb(n, d - k)), _frac(Fraction(tr_b * tr_b, tr_b2))])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def expected(kind: str, data: dict) -> dict:
    """The expected answer of one request, as JSON-ready values."""
    if kind in ("dim-star", "dim-plus", "dim-k"):
        if kind == "dim-star":
            orders = range(data["degree"] + 1)
        elif kind == "dim-plus":
            orders = range(1, data["degree"])
        else:
            orders = range(data["k"], data["k"] + 1)
        return {"exact_dim": derivative_dim(data["terms"], orders)}
    if kind in ("bounds", "bounds-sym"):
        k = data["k"]
        if kind == "bounds-sym":
            tr_b, tr_b2 = map(Fraction, sym_traces(*data["sym"], k))
        else:
            tr_b, tr_b2 = gram_traces(data["terms"], k)
        return {
            "monomial_count": len(data["terms"]),
            "tr_b": _frac(tr_b),
            "tr_b2": _frac(tr_b2),
            "L_lower": _frac(closed_form_l(data["terms"], k)),
        }
    if kind == "sym-gap":
        return {"points": len(data["points"]), "digest": _gap_points(data["points"])}
    if kind == "reduce-graph":
        n, edges = data["n"], data["edges"]
        faces = graph_faces(n, edges)
        ind = independent_sets(n, edges)
        return {"n": n, "m": len(edges), "ind_count": ind, "face_count": faces, "dim_plus": 2 * faces}
    if kind == "reduce-complex":
        faces = _faces([sum(1 << (v - 1) for v in f) for f in data["facets"]])
        return {
            "n": data["ground"],
            "m": len(data["facets"]),
            "ind_count": None,
            "face_count": faces,
            "dim_plus": 2 * faces,
        }
    if kind == "verify":
        total = 1 << comb(data["n"], 2)
        return {
            "n": data["n"],
            "graphs_checked": total,
            "nonempty_graphs": total - 1,
            "identity_failures": [],
            "basis_failures": [],
            "all_hold": True,
        }
    raise ValueError(f"unknown request kind {kind!r}")


def _sandwich(lower: list[Fraction], middle: Fraction, upper: Fraction) -> list[str]:
    problems = [f"lower bound {lo} > {middle}" for lo in lower if lo > middle]
    if middle > upper:
        problems.append(f"{middle} > upper bound {upper}")
    return problems


def check(kind: str, expect: dict, report: dict) -> list[str]:
    """Differences between a JSON report and its expectation; empty if correct."""
    problems = []

    def same(got, want, what):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    if kind in ("dim-star", "dim-plus", "dim-k"):
        same(report["exact_dim"], {"value": expect["exact_dim"], "status": "computed"}, "exact_dim")
        if kind == "dim-k":
            b = report["bounds"]
            lower = [Fraction(b["extremal_lower"]), Fraction(b["L_lower"]), Fraction(b["proxy_lower"])]
            problems += _sandwich(lower, Fraction(expect["exact_dim"]), Fraction(b["linearity_upper"]))
    elif kind in ("bounds", "bounds-sym"):
        t = report["trace"]
        for key in ("monomial_count", "tr_b", "tr_b2"):
            same(t[key], expect[key], f"trace.{key}")
        same(report["bounds"]["L_lower"], expect["L_lower"], "L_lower")
        tr_b, tr_b2 = Fraction(expect["tr_b"]), Fraction(expect["tr_b2"])
        same(Fraction(t["proxy"]), tr_b * tr_b / tr_b2, "trace.proxy")
        same(report["exact_dim"]["status"], "not-requested", "exact_dim.status")
        b = report["bounds"]
        upper = Fraction(b["linearity_upper"])
        problems += _sandwich([Fraction(b["L_lower"])], Fraction(b["proxy_lower"]), upper)
        if b["extremal_lower"] > upper:
            problems.append("extremal lower bound above the linearity upper bound")
    elif kind == "sym-gap":
        points = report["points"]
        rows = [[p["n"], p["d"], p["k"], p["u"], p["v"]] for p in points]
        same(len(points), expect["points"], "number of points")
        same(hashlib.sha256(json.dumps(rows).encode()).hexdigest(), expect["digest"], "points digest")
        for p in points:
            v, upper, ratio = Fraction(p["v"]), Fraction(p["upper_v"]), Fraction(p["ratio"])
            if v > upper or ratio != v / p["u"]:
                problems.append(f"gap point n={p['n']}: v={v} upper_v={upper} ratio={ratio}")
    elif kind in ("reduce-graph", "reduce-complex"):
        for key, value in expect.items():
            same(report[key], value, key)
        same(report["identity_holds"], True, "identity_holds")
        same(report["basis_verified"], True, "basis_verified")
    elif kind == "verify":
        for key, value in expect.items():
            same(report[key], value, key)
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return problems
