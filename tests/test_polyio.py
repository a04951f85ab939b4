"""Polynomial / graph / complex parsing, canonicalization, basis conversion."""

import itertools
import re
import string
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrank import (
    Graph,
    ParseError,
    SimplicialComplex,
    SparsePoly,
    format_complex,
    format_graph,
    format_poly,
    parse_complex,
    parse_graph,
    parse_poly,
    poly_from_json_dict,
    poly_to_json_dict,
    to_ordinary,
    to_scaled,
)
from pdrank import polyio
from pdrank.errors import ResourceLimitError
from pdrank.polyio import Term, _split_header, factorial_product, permute_vars, scale


def test_parse_basic_two_terms():
    f = parse_poly("x1*x2 + x3")
    assert f.vars == ("x1", "x2", "x3")
    assert len(f.terms) == 2
    assert f.coefficient((1, 1, 0)) == 1
    assert f.coefficient((0, 0, 1)) == 1


def test_parse_cancellation_gives_zero_poly():
    f = parse_poly("2*x1 - 2*x1")
    assert f.is_zero
    assert f.terms == ()


def test_parse_like_terms_merge():
    f = parse_poly("x1^2*x2 + x1^2*x2")
    assert len(f.terms) == 1
    assert f.terms[0].coef == 2
    assert f.terms[0].exps == (2, 1)


def test_parse_rational_and_decimal_coefficients_exact():
    f = parse_poly("3/2*x1 + 0.25*x2 - 7*x3")
    assert f.coefficient((1, 0, 0)) == Fraction(3, 2)
    assert f.coefficient((0, 1, 0)) == Fraction(1, 4)
    assert f.coefficient((0, 0, 1)) == Fraction(-7)


def test_parse_vars_header_pins_order():
    f = parse_poly("vars: a b c\nc + b")
    assert f.vars == ("a", "b", "c")
    assert f.coefficient((0, 0, 1)) == 1


def test_parse_header_rejects_undeclared_variable():
    with pytest.raises(ParseError):
        parse_poly("vars: a b\nc")


def test_parse_repeated_factor_multiplies():
    f = parse_poly("x*x*x")
    assert f.terms[0].exps == (3,)


PARSE_ERROR_CASES = [
    "x1 +",  # dangling operator
    "x1^-2",  # negative exponent
    "3/0*x1",  # zero denominator
    "3/*x1",  # malformed rational
    "2 3",  # missing operator
    "1.",  # malformed decimal
    "",  # empty input
    "x1 & x2",  # stray character
    "١٢*x1",  # digits are ASCII only
    "x1^٣",
    "x1 + é",  # names are ASCII only
]


@pytest.mark.parametrize("text", PARSE_ERROR_CASES)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_poly(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 +\nx2 ^ -1")
    assert err.value.line == 2


# -- the term-pattern parser against the token parser it replaced -------------


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
        if ch in string.digits:
            j = i
            while j < n and text[j] in string.digits:
                j += 1
            if j < n and text[j] == ".":
                k = j + 1
                while k < n and text[k] in string.digits:
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
        if ch in string.ascii_letters:
            m = re.compile(r"[A-Za-z][A-Za-z0-9_]*").match(text, i)
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


class _TokenParser:
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
            return Fraction(tok.text)
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
        exps[tok.text] = exps.get(tok.text, 0) + power

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
                return coef, exps
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


def reference_parse_poly(text: str) -> SparsePoly:
    """The character tokenizer and peek/next parser that ``parse_poly`` replaced."""
    header, body = _split_header(text, "vars")
    declared: list[str] | None = None
    if header is not None:
        declared = header.split()
        for name in declared:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
                raise ParseError(f"invalid variable name {name!r} in vars header", 1, 1)
        if len(set(declared)) != len(declared):
            raise ParseError("duplicate variable name in vars header", 1, 1)
    tokens = _tokenize(body)
    if not tokens:
        raise ParseError("empty polynomial", 1, 1)
    summands = _TokenParser(tokens).parse()
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


def outcome(parser, text: str):
    """The polynomial, or the ParseError's message, line and column."""
    try:
        return parser(text)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.col)


NAMES = ["x", "y1", "ab_2", "Z", "x10"]
space_st = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n "])


@st.composite
def poly_texts(draw):
    """Valid texts: int, rational and decimal coefficients, powers, spacing."""
    pieces: list[str] = []
    used: set[str] = set()

    def tok(text: str) -> None:
        pieces.append(text)
        pieces.append(draw(space_st))

    for t in range(draw(st.integers(1, 5))):
        if t or draw(st.booleans()):
            tok(draw(st.sampled_from("+-")))
        coef = draw(
            st.one_of(
                st.none(),
                st.integers(0, 999).map(str),
                st.tuples(st.integers(0, 99), st.integers(1, 99)).map(lambda p: f"{p[0]}/{p[1]}"),
                st.tuples(st.integers(0, 99), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]}"),
            )
        )
        factors = draw(st.lists(st.sampled_from(NAMES), max_size=3))
        if coef is None and not factors:
            factors = [NAMES[0]]
        if coef is not None:
            for part in re.split(r"(/)", coef):
                tok(part)
            if factors:
                tok("*")
        for idx, name in enumerate(factors):
            if idx:
                tok("*")
            tok(name)
            used.add(name)
            if draw(st.booleans()):
                tok("^")
                tok(str(draw(st.integers(0, 12))))
    text = "".join(pieces)
    if draw(st.booleans()):
        header = sorted(used | set(draw(st.lists(st.sampled_from(NAMES), max_size=2))))
        text = "vars: " + " ".join(draw(st.permutations(header))) + "\n" + text
    return text


@given(poly_texts())
@settings(max_examples=150)
def test_parser_matches_token_parser_on_valid_text(text):
    assert parse_poly(text) == reference_parse_poly(text)


@given(st.text(alphabet="xy1203 +-*/^.\n\t_", max_size=16))
@settings(max_examples=400)
def test_parser_fails_like_token_parser_on_malformed_text(text):
    assert outcome(parse_poly, text) == outcome(reference_parse_poly, text)


@pytest.mark.parametrize(
    "text", PARSE_ERROR_CASES + ["x1 +\nx2 ^ -1", "vars: a\nb", "x1 + 3/0*y & z"]
)
def test_parse_errors_match_token_parser(text):
    new = outcome(parse_poly, text)
    assert new[0] == "ParseError"
    assert new == outcome(reference_parse_poly, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1 + é", "line 1, col 6: unexpected character 'é'"),
        ("xé1", "line 1, col 2: unexpected character 'é'"),
        ("x1^²", "line 1, col 4: unexpected character '²'"),
        ("١٢*x1", "line 1, col 1: unexpected character '١'"),
        ("x1^٣", "line 1, col 4: unexpected character '٣'"),
    ],
)
def test_non_ascii_text_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [" " * 10**5 + "&", "*".join(["x"] * 10**5) + " &", "x" + " " * 10**5 + "y"],
    ids=["spaces", "long-term", "spaced-names"],
)
def test_parse_errors_cost_linear_time(text):
    """A rejected term is rescanned a bounded number of times, not once per
    way of splitting a run of spaces: quadratic work here would take minutes."""
    with pytest.raises(ParseError):
        parse_poly(text)


def test_to_scaled_examples():
    f = parse_poly("x1^2")
    assert to_scaled(f).terms[0].coef == 2  # 2! = 2
    g = parse_poly("x1*x2 + x3")
    assert to_scaled(g).coef_map() == g.coef_map()  # multilinear: unchanged
    h = parse_poly("3*x1^2*x2^3")
    assert to_scaled(h).terms[0].coef == 36  # 3 * 2! * 3!


def test_to_scaled_roundtrip_exact():
    f = parse_poly("3/7*x1^4*x2 - 5*x1*x2^2 + 1/3")
    assert to_ordinary(to_scaled(f)) == f


def test_to_scaled_matches_per_term_product_and_reuses_unit_terms():
    f = parse_poly("3/7*x1^4*x2 - 5*x1*x2^2 + x1*x2*x3 + 1/3 - 2/9*x3^3")
    g = to_scaled(f)
    assert g.basis == "scaled"
    assert [t.exps for t in g.terms] == [t.exps for t in f.terms]
    assert [t.coef for t in g.terms] == [t.coef * factorial_product(t.exps) for t in f.terms]
    reused = [new is old for new, old in zip(g.terms, f.terms)]
    assert reused == [factorial_product(t.exps) == 1 for t in f.terms]
    assert reused.count(True) == 2  # x1*x2*x3 and the constant


@given(st.data())
def test_to_scaled_matches_per_term_product(data):
    f = data.draw(polys(max_exp=6))
    g = to_scaled(f)
    assert [(t.exps, t.coef) for t in g.terms] == [
        (t.exps, t.coef * factorial_product(t.exps)) for t in f.terms
    ]
    assert all(type(t.coef) is Fraction for t in g.terms)


@pytest.mark.parametrize(
    "text, cap, bits",
    [
        ("x1^3*x2^2", 10, None),  # 3*2 + 2*2 = 10
        ("x1^3 + x2^2 + x1", 10, 11),
        ("x1^4 + x2", 13, None),  # 4*3 + 1 = 13, under the quick bound 5 * bit_length(5) = 15
        ("x1^4 + x2", 12, 13),
    ],
)
def test_to_scaled_bit_bound_is_sum_of_e_times_bit_length(monkeypatch, text, cap, bits):
    monkeypatch.setattr(polyio, "MAX_SCALED_BITS", cap)
    f = parse_poly(text)
    if bits is None:
        to_scaled(f)
        return
    with pytest.raises(ResourceLimitError, match=rf"^scaled-bits limit exceeded: {bits} > {cap}$"):
        to_scaled(f)


def test_to_scaled_refuses_huge_exponent_before_any_factorial(monkeypatch):
    def no_factorial(n):
        raise AssertionError("a factorial was computed before the bit bound was checked")

    monkeypatch.setattr(polyio.math, "factorial", no_factorial)
    f = parse_poly("x1^1099511627776 + x2^3 + x1*x2")
    with pytest.raises(ResourceLimitError) as err:
        to_scaled(f)
    assert err.value.what == "scaled-bits"
    assert err.value.actual == 2**40 * 41 + 3 * 2 + 2
    assert err.value.limit == polyio.MAX_SCALED_BITS


def test_scale_and_permute():
    f = parse_poly("x1^2 + 2*x2")
    g = scale(f, Fraction(1, 2))
    assert g.coefficient((2, 0)) == Fraction(1, 2)
    h = permute_vars(f, (1, 0))
    assert h.coefficient((0, 2)) == 1
    assert h.coefficient((1, 0)) == 2
    assert scale(f, 0).is_zero


# -- random canonical polynomials for property tests ------------------------

coef_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
).filter(lambda c: c != 0)


@st.composite
def polys(draw, max_vars=4, max_terms=5, max_exp=3):
    nvars = draw(st.integers(1, max_vars))
    nterms = draw(st.integers(0, max_terms))
    items = [
        (
            tuple(draw(st.integers(0, max_exp)) for _ in range(nvars)),
            draw(coef_st),
        )
        for _ in range(nterms)
    ]
    return SparsePoly.from_terms([f"x{i}" for i in range(1, nvars + 1)], items)


def reference_from_terms(items) -> list[tuple[tuple[int, ...], Fraction]]:
    """Like terms summed one by one in a dict of Fractions, zeros dropped, sorted."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coef in items:
        e = tuple(int(x) for x in exps)
        acc[e] = acc.get(e, Fraction(0)) + Fraction(coef)
    return [(e, c) for e, c in sorted(acc.items()) if c != 0]


def _coef_as(kind: str, c: Fraction):
    return {"int": c.numerator, "fraction": c, "str": str(c), "float": float(c)}[kind]


@st.composite
def term_items(draw):
    """Items over a small pool of exponent tuples, so tuples repeat; some
    items are followed by their negation, so sums cancel to zero."""
    nvars = draw(st.integers(0, 3))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4))
    items = []
    for _ in range(draw(st.integers(0, 8))):
        exps = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["int", "fraction", "str", "float"]))
        c = draw(st.integers(-5, 5)) if kind == "int" else draw(coef_st)
        if kind == "float":
            c = Fraction(draw(st.integers(-40, 40)), 8)  # exact in binary
        items.append((list(exps) if draw(st.booleans()) else exps, _coef_as(kind, c)))
        if draw(st.booleans()):
            items.append((exps, _coef_as(draw(st.sampled_from(["fraction", "str"])), -c)))
    return [f"x{i}" for i in range(1, nvars + 1)], items


@given(term_items())
def test_from_terms_matches_dict_of_fractions(case):
    variables, items = case
    f = SparsePoly.from_terms(variables, items)
    assert [(t.exps, t.coef) for t in f.terms] == reference_from_terms(items)
    assert all(type(t.coef) is Fraction and type(t.exps) is tuple for t in f.terms)


def test_from_terms_cancellation_gives_zero_poly():
    f = SparsePoly.from_terms(["x"], [((1,), 2), ((1,), "-3/2"), ((1,), -0.5), ((0,), 0)])
    assert f.is_zero


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SparsePoly(("x", "x"), ()), "duplicate variable names"),
        (lambda: SparsePoly(("x",), (), "odd"), "unknown basis 'odd'"),
        (
            lambda: SparsePoly(("x", "y"), (Term(Fraction(1), (1,)),)),
            "exponent vector length does not match variable count",
        ),
        (lambda: SparsePoly(("x",), (Term(Fraction(1), (-1,)),)), "negative exponent"),
        (lambda: SparsePoly(("x",), (Term(Fraction(0), (1,)),)), "zero coefficient stored"),
        (
            lambda: SparsePoly(("x",), (Term(Fraction(1), (2,)), Term(Fraction(1), (1,)))),
            "terms not strictly sorted",
        ),
        (
            lambda: SparsePoly(("x",), (Term(Fraction(1), (1,)), Term(Fraction(2), (1,)))),
            "terms not strictly sorted",
        ),
        (
            lambda: SparsePoly.from_terms(["x", "y"], [((1, 0), 1), ((1,), 1)]),
            "exponent vector length does not match variable count",
        ),
        (lambda: SparsePoly.from_terms(["x"], [((-1,), 0)]), "negative exponent"),
    ],
)
def test_sparse_poly_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@given(polys(max_exp=2))
def test_degree_and_shape_predicates(f):
    sums = [sum(t.exps) for t in f.terms]
    if f.terms:
        assert f.degree == max(sums)
    assert f.is_multilinear == all(e <= 1 for t in f.terms for e in t.exps)
    assert f.is_homogeneous == all(s == sums[0] for s in sums)
    for t in f.terms:
        assert polyio.support_size(t.exps) == sum(1 for e in t.exps if e > 0)


@given(polys())
def test_format_parse_roundtrip(f):
    assert parse_poly(format_poly(f)) == f


@given(polys())
def test_json_roundtrip(f):
    assert poly_from_json_dict(poly_to_json_dict(f)) == f


@st.composite
def json_polys(draw, max_vars=4, max_terms=5, max_exp=3):
    """JSON polynomials whose variable names are any names of the text grammar."""
    names = draw(
        st.lists(
            st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True),
            min_size=1,
            max_size=max_vars,
            unique=True,
        )
    )
    items = [
        (tuple(draw(st.integers(0, max_exp)) for _ in names), draw(coef_st))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    return poly_to_json_dict(SparsePoly.from_terms(names, items))


@given(json_polys())
def test_json_text_json_roundtrip(data):
    text = format_poly(poly_from_json_dict(data))
    assert poly_to_json_dict(parse_poly(text)) == data


@pytest.mark.parametrize("name", ["a b", "1x", "", "x-1", "é", "x1\n"])
def test_poly_json_rejects_names_outside_the_grammar(name):
    data = {"vars": ["x", name], "terms": [{"coef": "1", "exps": [1, 1]}]}
    with pytest.raises(ParseError, match=r"^invalid variable name .* in JSON vars$"):
        poly_from_json_dict(data)


@given(polys())
def test_scaled_conversion_is_bijective(f):
    if f.is_zero:
        return
    assert to_ordinary(to_scaled(f)) == f


@given(polys())
def test_canonicalization_idempotent(f):
    again = SparsePoly.from_terms(f.vars, [(t.exps, t.coef) for t in f.terms])
    assert again == f


@given(
    st.tuples(
        st.tuples(*[st.integers(0, 8)] * 3),
        st.tuples(*[st.integers(0, 8)] * 3),
        st.tuples(*[st.integers(0, 8)] * 3),
    )
)
@settings(max_examples=200)
def test_lex_order_compatible_with_addition(triple):
    a, b, c = triple
    if a < b:
        assert tuple(x + y for x, y in zip(a, c)) < tuple(x + y for x, y in zip(b, c))


@pytest.mark.parametrize(
    "coef",
    [
        "3/4", "-3/4", "+2", "007", "0.25", "-1.50", "-0",
        "1/0", "1.", ".5", "1_000", "1e3", "3/-4", "١٢",
        "1" * 4301, "1/" + "1" * 4301, "0." + "1" * 4301,
    ],
    ids=lambda coef: coef if len(coef) < 10 else f"{len(coef)}-chars",
)
def test_json_coefficient_reads_like_text(coef):
    """A JSON string coefficient and the same text have one value, or both are refused."""

    def read(parse, arg):
        try:
            return parse(arg)
        except ValueError:  # a ParseError, or a number past the int-to-str digit limit
            return "refused"

    data = {"vars": [], "terms": [{"coef": coef, "exps": []}]}
    assert read(poly_from_json_dict, data) == read(parse_poly, coef)


def test_poly_json_rejects_floats():
    with pytest.raises(ParseError):
        poly_from_json_dict({"vars": ["x"], "terms": [{"coef": 0.5, "exps": [1]}]})


def test_zero_poly_formats_and_parses():
    f = parse_poly("x1 - x1")
    text = format_poly(f)
    assert parse_poly(text) == f


# -- graphs ------------------------------------------------------------------


def test_parse_graph_triangle():
    g = parse_graph("p 3\n1 2\n2 3\n1 3")
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_parse_graph_infers_n_without_header():
    g = parse_graph("1 2\n2 5")
    assert g.n == 5
    assert g.m == 2


# The rules of the id-line reader that graph and complex files share:
# (text, line, rule), with "H" standing for the header keyword.
ID_LINE_ERRORS = [
    ("H 3\nH 3\n1 2", 2, "header"),  # header given twice
    ("1 2\nH 3", 2, "line"),  # header after data
    ("H\n1 2", 1, "header"),
    ("H x\n1 2", 1, "header"),
    ("H 3 4\n1 2", 1, "header"),
    ("H ٣\n1 2", 1, "header"),  # header digits are ASCII too
    ("\n  \n1 2\n\n1 0\n", 5, "vertex ids are 1-based"),  # blank lines are counted
    ("H 3\n1 2\n\n2 4", 4, "range"),
    ("1 x", 1, "line"),
    ("1 2\n1 ²", 2, "line"),
    ("١ ٢", 1, "line"),
]


def check_id_line_rules(parse, keyword, rules, size):
    """Every ID_LINE_ERRORS row fails with its message, line and column 1; sizes are read."""
    for text, line, rule in ID_LINE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text.replace("H", keyword))
        message = f"line {line}, col 1: {rules.get(rule, rule)}"
        assert (str(err.value), err.value.line, err.value.col) == (message, line, 1), text
    assert size(parse("\n1 2\n\n2 5\n")) == 5  # inferred: the largest id
    assert size(parse(f"\n {keyword} 7 \n1 2")) == 7


def test_parse_graph_errors():
    rules = {
        "header": "malformed graph header (expected 'p <n>')",
        "line": "expected an edge 'u v'",
        "range": "vertex out of range (n = 3)",
    }
    check_id_line_rules(parse_graph, "p", rules, lambda g: g.n)
    # An edge's own rules come before the shared id rules on its line.
    for text, message in [
        ("p 3\n2 2", "line 2, col 1: loop edge 2-2"),
        ("0 0", "line 1, col 1: loop edge 0-0"),
        ("p 3\n5 5", "line 2, col 1: loop edge 5-5"),
        ("1 2 3", "line 1, col 1: expected an edge 'u v'"),
        ("1 2\n1\n0 1", "line 2, col 1: expected an edge 'u v'"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_graph(text)


def test_graph_roundtrip_and_dedup():
    g = parse_graph("p 4\n2 1\n1 2\n3 4")
    assert g.m == 2
    assert parse_graph(format_graph(g)) == g


# -- complexes ----------------------------------------------------------------


def test_parse_complex_two_facets():
    sc = parse_complex("1 2\n2 3")
    assert sc.ground == 3
    assert len(sc.facets) == 2


def test_parse_complex_prunes_contained_facet():
    sc = parse_complex("1 2\n1")
    assert sc.facets == (frozenset({1, 2}),)


def test_parse_complex_header_and_errors():
    sc = parse_complex("ground 5\n1 2")
    assert sc.ground == 5
    rules = {
        "header": "malformed header (expected 'ground <n>')",
        "line": "expected a facet of vertex ids",
        "range": "vertex out of range (ground = 3)",
    }
    check_id_line_rules(parse_complex, "ground", rules, lambda sc: sc.ground)
    with pytest.raises(ValueError):
        SimplicialComplex.make(3, [[]])


def test_complex_nesting_is_tested_only_across_sizes():
    """A nested facet of a mixed-size complex is refused, or pruned by
    ``make``; a duplicate is refused; a pure complex makes no pair test."""
    tests = []

    class Counted(frozenset):
        """A frozenset that records each subset test it is the left side of."""

        def __lt__(self, other):
            tests.append((self, other))
            return frozenset.__lt__(self, other)

        def __le__(self, other):
            tests.append((self, other))
            return frozenset.__le__(self, other)

    sets = [Counted(f) for f in ({1, 2}, {1, 2, 3}, {3, 4}, {2, 4, 5})]
    with pytest.raises(ValueError, match="redundant facet"):
        SimplicialComplex(5, tuple(sets))
    assert tests and all(len(a) < len(b) for a, b in tests)
    with pytest.raises(ValueError, match="redundant facet"):
        SimplicialComplex(5, (sets[2], sets[2]))
    sc = SimplicialComplex.make(5, [[1, 2], [1, 2, 3], [3, 4], [2, 4, 5], [4, 5]])
    assert sc.facets == (frozenset({1, 2, 3}), frozenset({2, 4, 5}), frozenset({3, 4}))
    tests.clear()
    pure = tuple(Counted(f) for f in itertools.combinations(range(1, 7), 3))
    assert SimplicialComplex(6, pure).is_pure
    assert tests == []


def test_complex_roundtrip_and_purity():
    sc = parse_complex("1 2\n3 4\n2 3")
    assert parse_complex(format_complex(sc)) == sc
    assert sc.is_pure
    assert not parse_complex("1 2\n3").is_pure


def test_graph_make_validates():
    with pytest.raises(ValueError):
        Graph.make(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # unsorted pair rejected by invariant
