"""Sparse multivariate polynomials over the rationals, plus graph / complex I/O.

A polynomial is a canonical list of terms over an ordered variable list.
Exponent vectors are plain tuples of naturals (one entry per variable), so
Python's tuple comparison *is* the lexicographic order used throughout the
package.  Coefficients are exact ``fractions.Fraction`` values; no floating
point enters anywhere.

Two coefficient conventions are supported, recorded in ``SparsePoly.basis``:

* ``"ordinary"`` -- the coefficients as written, f = sum c * x1^a1 * ... * xn^an.
* ``"scaled"``   -- each monomial is divided by the product of factorials of
  its exponents, so differentiation acts as plain exponent subtraction.
  Converting multiplies each coefficient by prod(a_i!).

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError

# One natural number per variable of the ambient variable list.
ExponentVector = tuple[int, ...]

ORDINARY = "ordinary"
SCALED = "scaled"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def total_degree(exps: ExponentVector) -> int:
    """Sum of the exponents."""
    return sum(exps)


def support_size(exps: ExponentVector) -> int:
    """Number of strictly positive exponents (distinct variables occurring)."""
    return sum(1 for e in exps if e > 0)


def subsumes(beta: ExponentVector, alpha: ExponentVector) -> bool:
    """Componentwise beta <= alpha."""
    return all(b <= a for b, a in zip(beta, alpha))


def exps_sub(alpha: ExponentVector, beta: ExponentVector) -> ExponentVector:
    return tuple(a - b for a, b in zip(alpha, beta))


def factorial_product(exps: ExponentVector) -> int:
    """prod(e_i!) -- the scaling factor between the two coefficient bases."""
    out = 1
    for e in exps:
        if e > 1:
            out *= math.factorial(e)
    return out


@dataclass(frozen=True)
class Term:
    """A nonzero coefficient attached to an exponent vector."""

    coef: Fraction
    exps: ExponentVector


@dataclass(frozen=True)
class SparsePoly:
    """Canonical sparse polynomial: terms sorted by exponent vector, no zeros.

    ``vars`` fixes the variable order; every exponent vector has exactly
    ``len(vars)`` entries.  The zero polynomial has an empty term tuple.
    """

    vars: tuple[str, ...]
    terms: tuple[Term, ...]
    basis: str = ORDINARY

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        if self.basis not in (ORDINARY, SCALED):
            raise ValueError(f"unknown basis {self.basis!r}")
        n = len(self.vars)
        prev: ExponentVector | None = None
        for t in self.terms:
            if len(t.exps) != n:
                raise ValueError("exponent vector length does not match variable count")
            if any(e < 0 for e in t.exps):
                raise ValueError("negative exponent")
            if t.coef == 0:
                raise ValueError("zero coefficient stored")
            if prev is not None and not prev < t.exps:
                raise ValueError("terms not strictly sorted")
            prev = t.exps

    @classmethod
    def from_terms(
        cls,
        variables: Sequence[str],
        items: Iterable[tuple[Sequence[int], Fraction | int]],
        basis: str = ORDINARY,
    ) -> "SparsePoly":
        """Build a canonical polynomial: merge like terms, drop zeros, sort."""
        n = len(variables)
        acc: dict[ExponentVector, Fraction] = {}
        for exps, coef in items:
            e = tuple(int(x) for x in exps)
            if len(e) != n:
                raise ValueError("exponent vector length does not match variable count")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            acc[e] = acc.get(e, Fraction(0)) + Fraction(coef)
        terms = tuple(Term(c, e) for e, c in sorted(acc.items()) if c != 0)
        return cls(tuple(variables), terms, basis)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Max total degree over terms; rejects the zero polynomial."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(total_degree(t.exps) for t in self.terms)

    @property
    def is_multilinear(self) -> bool:
        return all(e <= 1 for t in self.terms for e in t.exps)

    @property
    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = total_degree(self.terms[0].exps)
        return all(total_degree(t.exps) == d for t in self.terms)

    def coefficient(self, exps: ExponentVector) -> Fraction:
        for t in self.terms:
            if t.exps == exps:
                return t.coef
        return Fraction(0)

    def coef_map(self) -> dict[ExponentVector, Fraction]:
        return {t.exps: t.coef for t in self.terms}


def to_scaled(f: SparsePoly) -> SparsePoly:
    """Convert ordinary coefficients c to scaled ones a = c * prod(exps_i!)."""
    if f.basis != ORDINARY:
        raise ValueError("to_scaled expects an ordinary-basis polynomial")
    terms = tuple(Term(t.coef * factorial_product(t.exps), t.exps) for t in f.terms)
    return SparsePoly(f.vars, terms, SCALED)


def to_ordinary(f: SparsePoly) -> SparsePoly:
    """Inverse of :func:`to_scaled`; exact on every term."""
    if f.basis != SCALED:
        raise ValueError("to_ordinary expects a scaled-basis polynomial")
    terms = tuple(Term(t.coef / factorial_product(t.exps), t.exps) for t in f.terms)
    return SparsePoly(f.vars, terms, ORDINARY)


def scale(f: SparsePoly, c: Fraction | int) -> SparsePoly:
    """c * f (c = 0 gives the zero polynomial)."""
    c = Fraction(c)
    if c == 0:
        return SparsePoly(f.vars, (), f.basis)
    return SparsePoly(f.vars, tuple(Term(t.coef * c, t.exps) for t in f.terms), f.basis)


def permute_vars(f: SparsePoly, perm: Sequence[int]) -> SparsePoly:
    """Relabel variables: entry j of each new exponent vector is old entry perm[j]."""
    n = len(f.vars)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of range(n)")
    items = [(tuple(t.exps[perm[j]] for j in range(n)), t.coef) for t in f.terms]
    return SparsePoly.from_terms(f.vars, items, f.basis)


# ---------------------------------------------------------------------------
# Polynomial text format
#
#   poly  := sterm (('+'|'-') sterm)*
#   sterm := [coef '*'] factor ('*' factor)* | coef
#   factor:= var ['^' uint]
#   coef  := int | int '/' uint | decimal
#
# Whitespace is insignificant.  An optional first line "vars: x1 x2 ..."
# pins the variable order; otherwise variables are ordered by first
# appearance.  Decimal literals become exact rationals; there is no float
# path anywhere.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM DEC NAME OP
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed decimal (digits required after '.')", line, col)
                tokens.append(_Token("DEC", text[i:k], line, col))
                col += k - i
                i = k
            else:
                tokens.append(_Token("NUM", text[i:j], line, col))
                col += j - i
                i = j
            continue
        if ch.isalpha():
            m = _NAME_RE.match(text, i)
            assert m is not None
            tokens.append(_Token("NAME", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*^/":
            tokens.append(_Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _PolyParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        if tok is None and self.tokens:
            last = self.tokens[-1]
            raise ParseError(message, last.line, last.col + len(last.text))
        if tok is None:
            raise ParseError(message, 1, 1)
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> list[tuple[Fraction, dict[str, int]]]:
        """Return a list of (signed coefficient, var -> exponent) summands."""
        out = []
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "OP" and tok.text in "+-":
            sign = -1 if tok.text == "-" else 1
            self.next()
        while True:
            coef, exps = self.parse_sterm()
            out.append((sign * coef, exps))
            tok = self.next()
            if tok is None:
                return out
            if tok.kind != "OP" or tok.text not in "+-":
                self.fail(f"expected '+' or '-', got {tok.text!r}", tok)
            sign = -1 if tok.text == "-" else 1

    def parse_coef(self) -> Fraction:
        tok = self.next()
        assert tok is not None and tok.kind in ("NUM", "DEC")
        if tok.kind == "DEC":
            return Fraction(tok.text)  # exact: "1.25" -> 5/4
        value = Fraction(int(tok.text))
        nxt = self.peek()
        if nxt is not None and nxt.kind == "OP" and nxt.text == "/":
            self.next()
            den = self.next()
            if den is None or den.kind != "NUM":
                self.fail("malformed rational: expected an unsigned integer denominator", den)
            if int(den.text) == 0:
                self.fail("malformed rational: zero denominator", den)
            value /= int(den.text)
        return value

    def parse_factor(self, exps: dict[str, int]):
        tok = self.next()
        assert tok is not None and tok.kind == "NAME"
        name = tok.text
        power = 1
        nxt = self.peek()
        if nxt is not None and nxt.kind == "OP" and nxt.text == "^":
            self.next()
            ptok = self.next()
            if ptok is not None and ptok.kind == "OP" and ptok.text == "-":
                self.fail("negative exponent", ptok)
            if ptok is None or ptok.kind != "NUM":
                self.fail("expected an unsigned integer exponent after '^'", ptok)
            power = int(ptok.text)
        exps[name] = exps.get(name, 0) + power

    def parse_sterm(self) -> tuple[Fraction, dict[str, int]]:
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        coef = Fraction(1)
        exps: dict[str, int] = {}
        if tok.kind in ("NUM", "DEC"):
            coef = self.parse_coef()
            nxt = self.peek()
            if nxt is None or not (nxt.kind == "OP" and nxt.text == "*"):
                return coef, exps  # bare constant
            self.next()
            tok = self.peek()
        if tok is None or tok.kind != "NAME":
            self.fail("expected a variable name", tok)
        self.parse_factor(exps)
        while True:
            nxt = self.peek()
            if nxt is None or not (nxt.kind == "OP" and nxt.text == "*"):
                return coef, exps
            self.next()
            tok = self.peek()
            if tok is None or tok.kind != "NAME":
                self.fail("expected a variable name after '*'", tok)
            self.parse_factor(exps)


def _split_header(text: str, keyword: str) -> tuple[str | None, str]:
    """Pull an optional '<keyword>: ...' first line; keep line numbering intact."""
    lines = text.split("\n")
    for idx, raw in enumerate(lines):
        if not raw.strip():
            continue
        if raw.strip().startswith(keyword + ":"):
            header = raw.strip()[len(keyword) + 1 :]
            lines[idx] = ""
            return header, "\n".join(lines)
        break
    return None, text


def parse_poly(text: str) -> SparsePoly:
    """Parse the text grammar into a canonical ordinary-basis polynomial.

    Variables are ordered by first appearance unless a "vars:" header pins
    the order.  Like terms merge; exact cancellation yields the zero
    polynomial.
    """
    header, body = _split_header(text, "vars")
    declared: list[str] | None = None
    if header is not None:
        declared = header.split()
        for name in declared:
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"invalid variable name {name!r} in vars header", 1, 1)
        if len(set(declared)) != len(declared):
            raise ParseError("duplicate variable name in vars header", 1, 1)
    tokens = _tokenize(body)
    if not tokens:
        raise ParseError("empty polynomial", 1, 1)
    summands = _PolyParser(tokens).parse()

    order: list[str] = list(declared) if declared is not None else []
    seen = set(order)
    for _, exps in summands:
        for name in exps:
            if name not in seen:
                if declared is not None:
                    raise ParseError(f"variable {name!r} not declared in vars header")
                seen.add(name)
                order.append(name)
    index = {name: i for i, name in enumerate(order)}
    items = []
    for coef, exps in summands:
        e = [0] * len(order)
        for name, p in exps.items():
            e[index[name]] = p
        items.append((tuple(e), coef))
    return SparsePoly.from_terms(order, items)


def _frac_text(value: Fraction) -> str:
    return str(value)  # "3/2" or "5"


def format_poly(f: SparsePoly, header: bool = True) -> str:
    """Canonical text for a polynomial; parse(format(f)) == f for ordinary f."""
    parts: list[str] = []
    for i, t in enumerate(f.terms):
        mag = abs(t.coef)
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in zip(f.vars, t.exps) if e > 0
        ]
        if not factors:
            body = _frac_text(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _frac_text(mag) + "*" + "*".join(factors)
        if i == 0:
            parts.append(body if t.coef > 0 else "-" + body)
        else:
            parts.append((" + " if t.coef > 0 else " - ") + body)
    body_text = "".join(parts) if parts else "0"
    if header:
        return "vars: " + " ".join(f.vars) + "\n" + body_text
    return body_text


def poly_to_json_dict(f: SparsePoly) -> dict:
    """JSON form: {"vars": [...], "terms": [{"coef": "3/2", "exps": [...]}]}."""
    if f.basis != ORDINARY:
        raise ValueError("JSON polynomial interchange uses the ordinary basis")
    return {
        "vars": list(f.vars),
        "terms": [{"coef": _frac_text(t.coef), "exps": list(t.exps)} for t in f.terms],
    }


def poly_from_json_dict(data: dict) -> SparsePoly:
    """Inverse of :func:`poly_to_json_dict`; float coefficients are rejected."""
    try:
        variables = list(data["vars"])
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial JSON: missing {exc}") from exc
    items = []
    for entry in raw_terms:
        coef = entry["coef"]
        if isinstance(coef, float):
            raise ParseError("floating-point coefficient rejected; use an exact string")
        if isinstance(coef, str):
            try:
                coef = Fraction(coef)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed rational {entry['coef']!r}") from exc
        elif not isinstance(coef, int):
            raise ParseError("coefficient must be an exact string or integer")
        exps = entry["exps"]
        if any(not isinstance(e, int) for e in exps):
            raise ParseError("exponents must be integers")
        if any(e < 0 for e in exps):
            raise ParseError("negative exponent")
        items.append((tuple(exps), Fraction(coef)))
    return SparsePoly.from_terms(variables, items)


# ---------------------------------------------------------------------------
# Graphs and simplicial complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, edges as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge {u}-{v}")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge endpoint out of range: {u}-{v}")

    @classmethod
    def make(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge {u}-{v}")
            canon.add((min(u, v), max(u, v)))
        return cls(n, frozenset(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-generated abstract simplicial complex over ground set {1..n}.

    Facets are canonical: deduplicated, none contained in another, sorted.
    The empty set is never a face; faces are the nonempty subsets of facets.
    """

    ground: int
    facets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for f in self.facets:
            if not f:
                raise ValueError("empty facet")
            if any(not (1 <= v <= self.ground) for v in f):
                raise ValueError("facet vertex out of range")
        for i, a in enumerate(self.facets):
            for j, b in enumerate(self.facets):
                if i != j and a <= b:
                    raise ValueError("redundant facet (contained in another)")

    @classmethod
    def make(cls, ground: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        sets = {frozenset(f) for f in facets}
        for f in sets:
            if not f:
                raise ValueError("empty facet")
        pruned = [f for f in sets if not any(f < g for g in sets)]
        pruned.sort(key=lambda f: tuple(sorted(f)))
        return cls(ground, tuple(pruned))

    @property
    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: optional header "p <n>", one "u v" per line."""
    lines = text.split("\n")
    n: int | None = None
    edges: list[tuple[int, int]] = []
    saw_edges = False
    max_seen = 0
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "p" and not saw_edges:
            if n is not None or len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("malformed graph header (expected 'p <n>')", lineno, 1)
            n = int(parts[1])
            continue
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError("expected an edge 'u v'", lineno, 1)
        saw_edges = True
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ParseError(f"loop edge {u}-{v}", lineno, 1)
        if u < 1 or v < 1:
            raise ParseError("vertex ids are 1-based", lineno, 1)
        if n is not None and (u > n or v > n):
            raise ParseError(f"vertex out of range (n = {n})", lineno, 1)
        max_seen = max(max_seen, u, v)
        edges.append((u, v))
    return Graph.make(n if n is not None else max_seen, edges)


def format_graph(g: Graph) -> str:
    lines = [f"p {g.n}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines)


def parse_complex(text: str) -> SimplicialComplex:
    """Parse facet lines (space-separated vertex ids); optional "ground <n>"."""
    lines = text.split("\n")
    ground: int | None = None
    facets: list[list[int]] = []
    max_seen = 0
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "ground" and not facets:
            if ground is not None or len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("malformed header (expected 'ground <n>')", lineno, 1)
            ground = int(parts[1])
            continue
        if not all(p.isdigit() for p in parts):
            raise ParseError("expected a facet of vertex ids", lineno, 1)
        verts = [int(p) for p in parts]
        if any(v < 1 for v in verts):
            raise ParseError("vertex ids are 1-based", lineno, 1)
        if ground is not None and any(v > ground for v in verts):
            raise ParseError(f"vertex out of range (ground = {ground})", lineno, 1)
        max_seen = max(max_seen, *verts)
        facets.append(verts)
    return SimplicialComplex.make(ground if ground is not None else max_seen, facets)


def format_complex(sc: SimplicialComplex) -> str:
    lines = [f"ground {sc.ground}"]
    lines += [" ".join(str(v) for v in sorted(f)) for f in sc.facets]
    return "\n".join(lines)
