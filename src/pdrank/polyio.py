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
What the other layers read per term is kept on the polynomial: the data of
its exponent vectors in one ``TermView`` (``SparsePoly.term_view``) and its
coefficients cleared to integers (``SparsePoly.cleared``), each computed on
its first read, so each per-term pass runs once however many layers read it.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Collection, Iterable, NoReturn, Sequence

from .combinat import cleared
from .errors import InvariantViolation, ParseError, ResourceLimitError

# One natural number per variable of the ambient variable list.
ExponentVector = tuple[int, ...]

ORDINARY = "ordinary"
SCALED = "scaled"

# Cap on sum(e * bit_length(e)) over all exponents e, which bounds the bits
# of the factorial products that to_scaled computes.  x1^117647, the largest
# single power admitted, takes to_scaled 0.4 s on a 2-vCPU host.
MAX_SCALED_BITS = 2_000_000

_COEF_OF = operator.attrgetter("coef")
_EXPS_OF = operator.attrgetter("exps")

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)


def _check_names(
    names: Sequence[str], where: str, line: int | None = None, col: int | None = None
) -> None:
    """Reject the first name outside the text grammar's variable names."""
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid variable name {name!r} in {where}", line, col)


def support_size(exps: ExponentVector) -> int:
    """Number of strictly positive exponents (distinct variables occurring)."""
    return len(exps) - exps.count(0)


def subsumes(beta: ExponentVector, alpha: ExponentVector) -> bool:
    """Componentwise beta <= alpha."""
    return all(b <= a for b, a in zip(beta, alpha))


def exps_sub(alpha: ExponentVector, beta: ExponentVector) -> ExponentVector:
    return tuple(a - b for a, b in zip(alpha, beta))


def factorial_product(exps: ExponentVector) -> int:
    """prod(e_i!) -- the scaling factor between the two coefficient bases."""
    return math.prod(map(math.factorial, exps))


def _check_exps(exps: Sequence[ExponentVector], n: int) -> None:
    """Refuse exponent vectors of a length other than n or with a negative entry."""
    if set(map(len, exps)) - {n}:
        raise ValueError("exponent vector length does not match variable count")
    if min(chain.from_iterable(exps), default=0) < 0:
        raise ValueError("negative exponent")


@dataclass(frozen=True)
class Term:
    """A nonzero coefficient attached to an exponent vector."""

    coef: Fraction
    exps: ExponentVector


class _once:
    """A method read as an attribute, computed on the first read and kept in the instance:
    ``functools.cached_property`` without the lock (about 2 µs a first read) of Python < 3.12."""

    def __init__(self, method):
        self.method = method

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.method.__name__] = self.method(obj)
        return value


class TermView:
    """The per-term data of a list of exponent vectors, each item computed on its first read.

    ``exps`` holds the vectors, ``sizes`` their support sizes and
    ``degrees`` their total degrees, in the same order (read-only lists;
    lists, not tuples: see ``exact.assemble``).  ``max_exp`` is the largest
    exponent (0 without any) and ``pairs`` the number of ordered pairs of
    equal total degree.  A polynomial's degree and shape flags are read off
    its view.  The view depends on the exponents only, so ``to_scaled``
    hands f's view to the scaled polynomial.
    """

    def __init__(self, exps: list[ExponentVector]):
        self.exps = exps

    @_once
    def sizes(self) -> list[int]:
        return list(map(support_size, self.exps))

    @_once
    def degrees(self) -> list[int]:
        return list(map(sum, self.exps))

    @_once
    def max_exp(self) -> int:
        return max(chain.from_iterable(self.exps), default=0)

    @_once
    def pairs(self) -> int:
        counts = Counter(self.degrees).values()
        return sum(map(operator.mul, counts, counts))


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
        exps = list(map(_EXPS_OF, self.terms))
        _check_exps(exps, len(self.vars))
        if not all(map(_COEF_OF, self.terms)):
            raise ValueError("zero coefficient stored")
        if not all(map(operator.lt, exps, exps[1:])):
            raise ValueError("terms not strictly sorted")

    @classmethod
    def from_terms(
        cls,
        variables: Sequence[str],
        items: Iterable[tuple[Sequence[int], Fraction | int | str | float]],
        basis: str = ORDINARY,
    ) -> "SparsePoly":
        """Build a canonical polynomial: merge like terms, drop zeros, sort.

        A coefficient that is neither an int nor a Fraction goes through
        ``Fraction()`` first, so "3/2" and 0.5 are read exactly.
        """
        exps: list[ExponentVector] = []
        coefs: list[Fraction | int] = []
        for e, c in items:
            exps.append(tuple(map(int, e)))
            coefs.append(c if type(c) is int or type(c) is Fraction else Fraction(c))
        _check_exps(exps, len(variables))
        return _canonical(variables, exps, coefs, basis)

    @_once
    def term_view(self) -> TermView:
        """The per-term data of f's exponent vectors (see :class:`TermView`), kept."""
        return TermView(list(map(_EXPS_OF, self.terms)))

    @_once
    def cleared(self) -> tuple[int, list[int]]:
        """``combinat.cleared`` of the coefficients: their common denominator and the
        integers it makes of them, in term order; computed on the first read and kept."""
        return cleared(map(_COEF_OF, self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Max total degree over terms; rejects the zero polynomial."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self.term_view.degrees)

    @property
    def is_multilinear(self) -> bool:
        return self.term_view.max_exp <= 1

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.term_view.degrees)) <= 1

    def coefficient(self, exps: ExponentVector) -> Fraction:
        for t in self.terms:
            if t.exps == exps:
                return t.coef
        return Fraction(0)

    def coef_map(self) -> dict[ExponentVector, Fraction]:
        return {t.exps: t.coef for t in self.terms}


def _canonical(
    variables: Sequence[str],
    exps: Sequence[ExponentVector],
    coefs: Sequence[Fraction | int],
    basis: str,
) -> SparsePoly:
    """The polynomial sum of coefs[i] * x^exps[i], for checked exponent tuples.

    Like terms are added only where an exponent tuple repeats; each
    surviving coefficient becomes one Fraction.
    """
    acc = dict(zip(exps, coefs))
    if len(acc) != len(exps):
        acc = {}
        for e, c in zip(exps, coefs):
            acc[e] = acc[e] + c if e in acc else c
    terms = tuple(
        [Term(c if type(c) is Fraction else Fraction(c), e) for e, c in sorted(acc.items()) if c]
    )  # from a list: see exact.assemble
    return SparsePoly(tuple(variables), terms, basis)


def to_scaled(f: SparsePoly) -> SparsePoly:
    """Convert ordinary coefficients c to scaled ones a = c * prod(exps_i!).

    Terms whose factor is 1 are reused.  Before any factorial is computed,
    a polynomial whose factorial products could have more than
    ``MAX_SCALED_BITS`` bits in all, sum(e * bit_length(e)) over every
    exponent e, raises ResourceLimitError.
    """
    if f.basis != ORDINARY:
        raise ValueError("to_scaled expects an ordinary-basis polynomial")
    exps = f.term_view.exps
    total = sum(f.term_view.degrees)
    if total * total.bit_length() > MAX_SCALED_BITS:  # at least the sum below
        bits = sum(e * e.bit_length() for e in chain.from_iterable(exps))
        if bits > MAX_SCALED_BITS:
            raise ResourceLimitError("scaled-bits", MAX_SCALED_BITS, bits)
    factors = map(factorial_product, exps)
    terms = tuple(
        [
            t if m == 1 else Term(Fraction(t.coef.numerator * m, t.coef.denominator), t.exps)
            for t, m in zip(f.terms, factors)
        ]
    )  # from a list: see exact.assemble
    scaled = SparsePoly(f.vars, terms, SCALED)
    scaled.__dict__["term_view"] = f.term_view  # the same exponent vectors
    return scaled


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
# Whitespace is insignificant.  Variable names are ASCII: a letter, then
# letters, digits or '_'.  An optional first line "vars: x1 x2 ..." pins
# the variable order; otherwise variables are ordered by first appearance.
# Decimal literals become exact rationals; there is no float path anywhere.
# Digits are ASCII in every input format.  A JSON "coef" string is one coef
# with an optional sign and no space; _read_coef gives its value and a
# term's alike.  Graph and complex ids are read by _read_id_lines.
# ---------------------------------------------------------------------------

_UINT = "[0-9]+"  # ASCII digits only; \d and str.isdigit() take any Unicode digit
_UINT_RE = re.compile(_UINT)
_INT_RE = re.compile(f"[-+]?{_UINT}")
_COEF = rf"{_UINT}\.{_UINT}|{_UINT}(?:\s*/\s*{_UINT})?"
_COEF_STRING_RE = re.compile("([-+]?)(" + _COEF.replace(r"\s*", "") + ")")  # JSON: no space
_FACTOR = rf"{_NAME}(?:\s*\^\s*{_UINT})?"
_MONO = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
# One signed term and the space after it; a term ends where the next sign
# or the text does, so a match never stops inside a token.
_TERM_RE = re.compile(
    rf"\s*(?:(?P<sign>[-+])\s*)?"
    rf"(?:(?:(?P<coef>{_COEF})\s*\*\s*)?(?P<mono>{_MONO})|(?P<const>{_COEF}))"
    rf"\s*(?=[-+]|\Z)"
)
_FACTOR_RE = re.compile(rf"({_NAME})\s*(?:\^\s*({_UINT}))?")
# Tokens for error diagnosis only; BADDEC and BAD are lexical errors.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<DEC>{_UINT}\.{_UINT})|(?P<BADDEC>{_UINT}\.)|(?P<NUM>{_UINT})"
    rf"|(?P<NAME>{_NAME})|(?P<OP>[-+*^/])|(?P<BAD>\S))"
)


def _is_past_limit(text: str) -> bool:
    """Whether ``text`` is longer than the int-to-str digit limit, where there is one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    return 0 < limit < len(text)


def _parse_int(name: str, text: str, line: int | None = None, col: int | None = None) -> int:
    """The int of ``text``, ASCII digits with an optional sign.

    Other text is a ParseError, at ``line`` and ``col`` when given, that
    names ``name``.  Text longer than the int-to-str digit limit is not
    quoted: the error gives its length.  A term or an id line calls
    ``int()`` on the digits its pattern matched, and this only where that
    fails, past the digit limit.
    """
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the digit limit
            pass
    if _is_past_limit(text):
        limit = sys.get_int_max_str_digits()
        message = f"{name} must be an integer of at most {limit} digits, got {len(text)} characters"
    else:
        message = f"{name} must be an integer, got {text!r}"
    raise ParseError(message, line, col)


def _read_coef(sign: str, coef: str) -> Fraction | int:
    """The exact value of a ``coef`` under ``sign``; ZeroDivisionError on a zero denominator."""
    if "/" in coef:
        num, den = coef.split("/")
        return Fraction(int(sign + num), int(den))
    if "." in coef:  # exact: "1.25" -> 5/4
        whole, frac = coef.split(".")
        num = int(whole) * 10 ** len(frac) + int(frac)
        return Fraction(-num if sign == "-" else num, 10 ** len(frac))
    return int(sign + coef)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _diagnose(body: str, pos: int) -> NoReturn:
    """Raise the ParseError for the term at ``pos`` that ``_TERM_RE`` rejected.

    The first lexical error in the rest of the text wins (an unexpected
    character, or a decimal point without digits after it).  Otherwise the
    term's tokens are walked by the grammar and the error names the first
    token that does not fit, or the end of the text.  A zero denominator and
    a number past the int-to-str digit limit, which the term pattern
    accepts, are reported here too.
    """
    tokens = []  # (kind, text, offset)
    for m in _TOKEN_RE.finditer(body, pos):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", *_line_col(body, m.start(kind)))
        if kind == "BADDEC":
            raise ParseError(
                "malformed decimal (digits required after '.')", *_line_col(body, m.start(kind))
            )
        tokens.append((kind, m[kind], m.start(kind)))

    def kind(i: int) -> str | None:
        return tokens[i][0] if i < len(tokens) else None

    def op(i: int) -> str | None:
        return tokens[i][1] if kind(i) == "OP" else None

    def fail(message: str, i: int) -> NoReturn:
        if i < len(tokens):
            offset = tokens[i][2]
        else:
            offset = tokens[-1][2] + len(tokens[-1][1])
        raise ParseError(message, *_line_col(body, offset))

    def number(i: int, name: str) -> int:
        """The int of token i, a decimal's digits before its point; each run of
        digits past the digit limit is a ParseError at its start."""
        whole, _, frac = tokens[i][1].partition(".")
        value = _parse_int(name, whole, *_line_col(body, tokens[i][2]))
        if frac:
            _parse_int("fractional part", frac, *_line_col(body, tokens[i][2] + len(whole) + 1))
        return value

    i = 1 if op(0) in ("+", "-") else 0
    if kind(i) is None:
        fail("expected a term", i)
    name_expected = "expected a variable name"
    if kind(i) in ("NUM", "DEC"):
        if kind(i) == "NUM" and op(i + 1) == "/":
            number(i, "numerator")
            i += 2
            if kind(i) != "NUM":
                fail("malformed rational: expected an unsigned integer denominator", i)
            if number(i, "denominator") == 0:
                fail("malformed rational: zero denominator", i)
        else:
            number(i, "coefficient")
        i += 1
        if op(i) == "*":
            i += 1
        else:
            name_expected = None  # a bare constant
    while name_expected:
        if kind(i) != "NAME":
            fail(name_expected, i)
        i += 1
        if op(i) == "^":
            i += 1
            if op(i) == "-":
                fail("negative exponent", i)
            if kind(i) != "NUM":
                fail("expected an unsigned integer exponent after '^'", i)
            number(i, "exponent")
            i += 1
        if op(i) != "*":
            break
        i += 1
        name_expected = "expected a variable name after '*'"
    if kind(i) is not None and op(i) not in ("+", "-"):
        fail(f"expected '+' or '-', got {tokens[i][1]!r}", i)
    raise InvariantViolation(f"term at offset {pos} rejected but no error found")


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

    Each term is one match of a compiled pattern.  At the first term that
    does not match, the error is diagnosed there and raised as a
    ParseError with its line and column.  Variables are ordered by first
    appearance unless a "vars:" header pins the order.  Like terms merge;
    exact cancellation yields the zero polynomial.
    """
    header, body = _split_header(text, "vars")
    declared: list[str] | None = None
    if header is not None:
        declared = header.split()
        _check_names(declared, "vars header", 1, 1)
        if len(set(declared)) != len(declared):
            raise ParseError("duplicate variable name in vars header", 1, 1)
    if not body.strip():
        raise ParseError("empty polynomial", 1, 1)
    # Every name in a body that the term loop accepts is a variable.
    order = list(dict.fromkeys([*(declared or ()), *_NAME_RE.findall(body)]))
    index = {name: i for i, name in enumerate(order)}
    n = len(order)
    coefs: list[Fraction | int] = []
    exps: list[ExponentVector] = []
    pos = 0
    while pos < len(body):
        m = _TERM_RE.match(body, pos)
        if m is None:
            _diagnose(body, pos)
        sign, coef_text, mono, const = m.groups("")
        try:
            coefs.append(_read_coef(sign, coef_text or const or "1"))  # "1": a bare monomial
            e = [0] * n
            if mono:
                for name, power in _FACTOR_RE.findall(mono):
                    e[index[name]] += int(power) if power else 1
        except (ValueError, ZeroDivisionError):  # past the digit limit; a zero denominator
            _diagnose(body, pos)
        exps.append(tuple(e))
        pos = m.end()
    if declared is not None and n > len(declared):
        raise ParseError(f"variable {order[len(declared)]!r} not declared in vars header")
    return _canonical(order, exps, coefs, ORDINARY)


def format_poly(f: SparsePoly, header: bool = True) -> str:
    """Canonical text for a polynomial; parse(format(f)) == f for ordinary f."""
    parts: list[str] = []
    for i, t in enumerate(f.terms):
        mag = abs(t.coef)
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in zip(f.vars, t.exps) if e > 0
        ]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
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
        "terms": [{"coef": str(t.coef), "exps": list(t.exps)} for t in f.terms],
    }


def poly_from_json_dict(data: dict) -> SparsePoly:
    """Inverse of :func:`poly_to_json_dict`.

    Anything but that shape is a ParseError: "vars" must be a list of
    variable names of the text grammar, "terms" a list of objects with
    "coef" (an exact string or an integer; floats and booleans are
    rejected) and "exps" (a list of integers).
    """
    try:
        variables = data["vars"]
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial JSON: missing {exc}") from exc
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ParseError("malformed polynomial JSON: vars must be a list of strings")
    _check_names(variables, "JSON vars")
    if not isinstance(raw_terms, list):
        raise ParseError("malformed polynomial JSON: terms must be a list")
    items = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or "coef" not in entry or "exps" not in entry:
            raise ParseError('malformed polynomial JSON: a term needs "coef" and "exps"')
        coef = entry["coef"]
        if isinstance(coef, float):
            raise ParseError("floating-point coefficient rejected; use an exact string")
        if isinstance(coef, str):
            m = _COEF_STRING_RE.fullmatch(coef)
            try:
                if m is None:
                    raise ValueError("not a coef of the text grammar")
                coef = _read_coef(*m.groups())
            except (ValueError, ZeroDivisionError) as exc:
                shown = f"of {len(coef)} characters" if _is_past_limit(coef) else repr(coef)
                raise ParseError(f"malformed rational {shown}") from exc
        elif isinstance(coef, bool) or not isinstance(coef, int):
            raise ParseError("coefficient must be an exact string or integer")
        exps = entry["exps"]
        if not isinstance(exps, list) or any(
            isinstance(e, bool) or not isinstance(e, int) for e in exps
        ):
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
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _nested(sets: Collection[frozenset[int]]) -> set[frozenset[int]]:
    """The sets that lie inside another of ``sets``.

    Only a smaller set can lie inside a larger one, so only sets of
    different sizes are compared: a family of one size, as every pure
    complex is, makes no test.
    """
    if len(set(map(len, sets))) < 2:
        return set()
    return {f for f in sets for g in sets if len(f) < len(g) and f < g}


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
        if len(set(self.facets)) != len(self.facets) or _nested(self.facets):
            raise ValueError("redundant facet (contained in another)")

    @classmethod
    def make(cls, ground: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        sets = {frozenset(f) for f in facets}
        if frozenset() in sets:
            raise ValueError("empty facet")
        pruned = list(sets - _nested(sets))
        pruned.sort(key=lambda f: tuple(sorted(f)))
        return cls(ground, tuple(pruned))

    @property
    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1


def _read_id_lines(
    text: str, keyword: str, size: str, header_error: str, line_error: str,
    line_rule: Callable[[list[int]], str | None] = lambda ids: None,
) -> tuple[int, list[list[int]]]:
    """The size and the id lines of a graph or complex file.

    An optional "<keyword> <n>" line before the first id line gives the size,
    else the largest id does.  Every other nonblank line holds ids of ASCII
    digits that ``line_rule`` accepts, each in 1..n; the first line that
    breaks a rule is a ParseError at column 1, and a number past the
    int-to-str digit limit is one at its own column.
    """
    n: int | None = None
    lines: list[list[int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == keyword and not lines:
            if n is not None or len(parts) != 2 or not _UINT_RE.fullmatch(parts[1]):
                raise ParseError(header_error, lineno, 1)
            n = _parse_int(size, parts[1], lineno, raw.find(parts[1]) + 1)
            continue
        if not all(map(_UINT_RE.fullmatch, parts)):
            raise ParseError(line_error, lineno, 1)
        try:
            ids = list(map(int, parts))
        except ValueError:  # past the digit limit: the first such id is the error
            for part in parts:
                _parse_int("vertex id", part, lineno, raw.find(part) + 1)
            raise
        if error := line_rule(ids):
            raise ParseError(error, lineno, 1)
        if min(ids) < 1:
            raise ParseError("vertex ids are 1-based", lineno, 1)
        if n is not None and max(ids) > n:
            raise ParseError(f"vertex out of range ({size} = {n})", lineno, 1)
        lines.append(ids)
    return (max(map(max, lines), default=0) if n is None else n), lines


def _edge_error(ids: list[int]) -> str | None:
    """What an id line lacks to be an edge: exactly two ids, and no loop."""
    if len(ids) != 2:
        return "expected an edge 'u v'"
    return f"loop edge {ids[0]}-{ids[1]}" if ids[0] == ids[1] else None


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: optional header "p <n>", one "u v" per line."""
    n, edges = _read_id_lines(
        text, "p", "n", "malformed graph header (expected 'p <n>')", "expected an edge 'u v'",
        _edge_error,
    )
    return Graph.make(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"p {g.n}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines)


def parse_complex(text: str) -> SimplicialComplex:
    """Parse facet lines (space-separated vertex ids); optional "ground <n>"."""
    ground, facets = _read_id_lines(
        text, "ground", "ground", "malformed header (expected 'ground <n>')",
        "expected a facet of vertex ids",
    )
    return SimplicialComplex.make(ground, facets)


def format_complex(sc: SimplicialComplex) -> str:
    lines = [f"ground {sc.ground}"]
    lines += [" ".join(str(v) for v in sorted(f)) for f in sc.facets]
    return "\n".join(lines)
