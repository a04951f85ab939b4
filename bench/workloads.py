"""Seeded request mixes for the three benchmark workloads.

Every input is drawn from ``random.Random(f"{workload}:{seed}:{pass}")`` by
the code in this file, never by ``pdrank.corpus``, so a change to the package
cannot change the load.  Each pass of a run gets inputs of its own, so a cache
kept across calls cannot answer a later pass from an earlier one.  Polynomials, graphs and complexes are written as text files
under the work directory; the program receives only those files and the
command-line arguments.  Each request also keeps the generated object in
``data`` so that ``reference.py`` can compute its expected answer without
reading the program's output.

The cost of a request depends mostly on the sparsity pattern of its input,
so the supports (exponent vectors) of the polynomials are drawn from a fixed
stream, ``random.Random(f"{workload}:support")``, and are the same for every
seed and pass.  The seed and the pass draw the coefficients, the graphs and
complexes, the gap series parameters and the order of the requests.  Two
seeds, and two passes, thus load the program equally and the spread between
runs is the machine's.  Some requests are the same in every pass by their
definition: ``verify --exhaustive n=5``, Sym_{4,8}, Sym_{4,9}, the
``d=5 k=2 n=7..2000`` gap series and the probes.

Each mix ends with one or two small probe requests of the layers it does not
stress (a 4-vertex ``reduce graph``, a short ``sym gap``, a small ``dim``), so
that a traced run of any workload times every layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

WORKLOADS = ("exact-dim", "trace-bounds", "graph-verify")
EXACT_POLYS = 60


@dataclass
class Request:
    """One CLI call: ``pdrank <argv>``, with the generated input behind it."""

    kind: str
    argv: list[str]
    data: dict = field(default_factory=dict)


def _coef(rng: random.Random, den: int | None = None) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-20, 20)
    return Fraction(num, rng.randint(1, 10) if den is None else den)


def _poly_text(nvars: int, terms: dict[tuple[int, ...], Fraction]) -> str:
    names = [f"x{i}" for i in range(1, nvars + 1)]
    parts = []
    for exps, coef in sorted(terms.items()):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        body = f"{abs(coef)}*" + "*".join(factors) if factors else str(abs(coef))
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return "vars: " + " ".join(names) + "\n" + (text[2:] if text[0] == "+" else text) + "\n"


def _multilinear_poly(support: random.Random, rng: random.Random, nvars: int, nterms: int) -> dict:
    """Random multilinear polynomial; term i has degree 2 + i % 5.

    The denominators come with the support: the cost of the exact trace sum
    grows with their least common multiple.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < nterms:
        exps = [0] * nvars
        for i in support.sample(range(nvars), 2 + len(terms) % 5):
            exps[i] = 1
        if tuple(exps) not in terms:
            terms[tuple(exps)] = _coef(rng, support.randint(1, 10))
    return {"nvars": nvars, "terms": terms}


def _sym_poly(n: int, d: int) -> dict:
    terms = {}
    for subset in combinations(range(n), d):
        terms[tuple(1 if i in subset else 0 for i in range(n))] = Fraction(1)
    return {"nvars": n, "terms": terms, "sym": (n, d)}


def _random_graph(rng: random.Random, n: int, m: int) -> dict:
    pairs = list(combinations(range(1, n + 1), 2))
    return {"n": n, "edges": sorted(rng.sample(pairs, m))}


def _random_complex(rng: random.Random, ground: int, size: int, count: int) -> dict:
    count = min(count, comb(ground, size))
    facets: set[tuple[int, ...]] = set()
    while len(facets) < count:
        facets.add(tuple(sorted(rng.sample(range(1, ground + 1), size))))
    return {"ground": ground, "facets": sorted(facets)}


class _Writer:
    """Writes input files under one directory and builds requests on them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def file(self, text: str, suffix: str) -> str:
        path = self.workdir / f"in{self.count:03d}.{suffix}"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def poly(self, data: dict) -> str:
        return self.file(_poly_text(data["nvars"], data["terms"]), "poly")

    def graph(self, data: dict) -> str:
        lines = [f"p {data['n']}"] + [f"{u} {v}" for u, v in data["edges"]]
        return self.file("\n".join(lines) + "\n", "graph")

    def complex(self, data: dict) -> str:
        lines = [f"ground {data['ground']}"]
        lines += [" ".join(map(str, f)) for f in data["facets"]]
        return self.file("\n".join(lines) + "\n", "complex")


JSON = ["--format", "json"]


def _reduce_graph(w: _Writer, data: dict) -> Request:
    return Request("reduce-graph", ["reduce", "graph", w.graph(data), *JSON], data)


def _sym_gap_fixed(d: int, k: int, lo: int, hi: int) -> Request:
    data = {"mode": "fixed", "points": [(n, d, k) for n in range(lo, hi + 1)]}
    argv = ["sym", "gap", "--fixed", f"d={d}", f"k={k}", f"n={lo}..{hi}", *JSON]
    return Request("sym-gap", argv, data)


def _sym_gap_scaled(kp: int, dp: int, np_: int, hi: int) -> Request:
    k = min(kp, dp - kp)
    data = {"mode": "scaled", "points": [(np_ * m, dp * m, k * m) for m in range(1, hi + 1)]}
    argv = ["sym", "gap", "--scaled", f"kp={kp}", f"dp={dp}", f"np={np_}", f"m=1..{hi}", *JSON]
    return Request("sym-gap", argv, data)


def _rows_under(exps: tuple[int, ...]) -> set[tuple[int, ...]]:
    return set(product(*(range(e + 1) for e in exps)))


def _sized_poly(support: random.Random, rng: random.Random, nvars: int, degree: int, rows: int) -> dict:
    """Random rational polynomial of this degree, grown term by term until its
    all-orders derivative matrix has at least ``rows`` rows (or 40 terms).

    Every term has degree >= 1; the first has the full degree.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    seen: set[tuple[int, ...]] = set()
    while len(seen) < rows and len(terms) < 40:
        exps = [0] * nvars
        for _ in range(degree if not terms else support.randint(1, degree)):
            exps[support.randrange(nvars)] += 1
        exps = tuple(exps)
        if exps not in terms:
            terms[exps] = _coef(rng)
            seen |= _rows_under(exps)
    return {"nvars": nvars, "terms": terms, "degree": degree}


def exact_dim(support: random.Random, rng: random.Random, w: _Writer) -> list[Request]:
    """60 polynomials (3..8 vars, degree 3..7, at most 40 terms) x {star, plus, k}.

    Slot i fixes the shape and a target matrix size, log-spaced from 20 to 250
    rows (at most half the monomials of the shape).
    """
    requests = []
    for i in range(EXACT_POLYS):
        nvars, degree = 3 + i % 6, 3 + i % 5
        spread = ((i * 7) % EXACT_POLYS) / (EXACT_POLYS - 1)
        rows = min(round(20 * 12.5**spread), comb(nvars + degree, degree) // 2)
        data = _sized_poly(support, rng, nvars, degree, rows)
        path = w.poly(data)
        requests.append(Request("dim-star", ["dim", path, "--mode", "star", *JSON], data))
        requests.append(Request("dim-plus", ["dim", path, "--mode", "plus", *JSON], data))
        k = degree // 2
        requests.append(
            Request("dim-k", ["dim", path, "--k", str(k), *JSON], {**data, "k": k})
        )
    return requests + [_reduce_graph(w, _random_graph(rng, 4, 3)), _sym_gap_fixed(3, 1, 4, 30)]


def trace_bounds(support: random.Random, rng: random.Random, w: _Writer) -> list[Request]:
    """Multilinear polynomials, Sym_{4,8}, Sym_{4,9} and long gap series.

    Six polynomials of 100 terms on 14 variables, six of 70 terms on 12 and
    three of 40 terms on 10, at k = 1, 2, 3.  With 21 requests in a pass the
    median falls among the 70-term polynomials and the tail percentile among
    the 100-term ones, so each is read from the pooled samples of six inputs.
    """
    requests = []
    for i, (nterms, nvars) in enumerate([(100, 14)] * 6 + [(70, 12)] * 6 + [(40, 10)] * 3):
        data = _multilinear_poly(support, rng, nvars, nterms)
        k = 1 + i % 3
        requests.append(
            Request("bounds", ["bounds", w.poly(data), "--k", str(k), *JSON], {**data, "k": k})
        )
    for n, k in ((8, 2), (9, 3)):
        data = _sym_poly(n, 4)
        requests.append(
            Request("bounds-sym", ["bounds", w.poly(data), "--k", str(k), *JSON], {**data, "k": k})
        )
    requests.append(_sym_gap_fixed(5, 2, 7, 2000))
    d = rng.randint(3, 6)
    k = rng.randint(1, d - 1)
    requests.append(_sym_gap_fixed(d, k, d + k, rng.randint(800, 1200)))
    requests.append(_sym_gap_scaled(1, 2, 5, rng.randint(20, 30)))
    return requests + [_reduce_graph(w, _random_graph(rng, 4, 3))]


def graph_verify(support: random.Random, rng: random.Random, w: _Writer) -> list[Request]:
    """verify --exhaustive n=5 --check-basis, 24 graphs on 6-7 vertices, 24 complexes."""
    requests = [
        Request(
            "verify",
            ["verify", "--exhaustive", "n=5", "--check-basis", *JSON],
            {"n": 5},
        )
    ]
    for i in range(24):
        n = 6 + i % 2
        m = 2 + (i * 7) % (comb(n, 2) - 2)
        requests.append(_reduce_graph(w, _random_graph(rng, n, m)))
    for i in range(24):
        ground = 5 + i % 4
        size = 2 + i % 3
        data = _random_complex(rng, ground, size, 2 + i % 7)
        requests.append(
            Request("reduce-complex", ["reduce", "complex", w.complex(data), *JSON], data)
        )
    poly = {**_sized_poly(support, rng, 4, 3, 12), "k": 1}
    return requests + [
        Request("dim-k", ["dim", w.poly(poly), "--k", "1", *JSON], poly),
        _sym_gap_fixed(3, 1, 4, 30),
    ]


_MIXES = {"exact-dim": exact_dim, "trace-bounds": trace_bounds, "graph-verify": graph_verify}


def generate(workload: str, seed: int, pass_no: int, workdir: Path) -> list[Request]:
    """The request mix of one pass, in a seeded order; writes its input files."""
    support = random.Random(f"{workload}:support")
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    mix = _MIXES[workload](support, rng, _Writer(workdir))
    rng.shuffle(mix)
    return mix
