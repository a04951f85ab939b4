"""The report writers, and the stage record of a report's values.

Every report goes out through :func:`emit`: JSON by :func:`json_text`
(keys sorted, a two-space indent, every int in full, also past the
int-to-str digit limit), text by ``_emit_text``.  Rationals are written
as ``p/q`` strings by :func:`frac_str` and to 12 significant digits by
:func:`frac_dec`.  A ``sym gap`` report goes out through :func:`emit_gap`,
in csv too: a point is one row of string cells (``_gap_row``) that csv
joins, text takes as a dict and JSON fills into one rendered layout
(``_gap_layout``).  :class:`Stages` times the stages
of a report for ``--timing`` and gives each value a cap may skip its
``{value, status}`` record.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable

from .errors import ResourceLimitError

DEC12 = Context(prec=12)  # the 12 significant digits of frac_dec
# Every operation of int_decimal is exact; an inexact one would raise.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
SPLIT_BITS = 4096  # int_decimal calls Decimal(n) up to here; both ways tie near 16,000 bits


def _is_long(n: int) -> bool:
    """Whether n is past ``SPLIT_BITS`` bits, where ``Decimal(n)`` is too slow."""
    return n.bit_length() > SPLIT_BITS


def int_decimal(n: int) -> Decimal:
    """``Decimal(n)``, in time sub-quadratic in the digits of a long int.

    ``Decimal(n)`` itself is quadratic.  Past ``SPLIT_BITS`` bits, n is
    split as hi * 2^h + lo with h half its bit length, the halves are
    converted alike, and one exact multiply-add joins them; libmpdec
    multiplies long operands by number-theoretic transform.  Each power
    2^h is made once per call, from the two powers of half its size.
    """
    if not _is_long(n):
        return Decimal(n)
    powers: dict[int, Decimal] = {}

    def power(h: int) -> Decimal:
        if h not in powers:
            half = h // 2
            powers[h] = Decimal(1 << h) if h <= SPLIT_BITS else power(half) * power(h - half)
        return powers[h]

    def join(m: int, bits: int) -> Decimal:
        if bits <= SPLIT_BITS:
            return Decimal(m)
        h = bits // 2
        hi = m >> h
        return join(hi, bits - h) * power(h) + join(m - (hi << h), h)

    with localcontext(EXACT):
        d = join(abs(n), n.bit_length())
    return d.copy_negate() if n < 0 else d


def exact_str(value) -> str:
    """``str(value)``, in full also for an int past the int-to-str digit limit.

    The interpreter's limit stays in force, as it guards ``int()`` on input
    text; :func:`int_decimal` converts an int of any size exactly without it.
    """
    try:
        return str(value)
    except ValueError:
        return str(int_decimal(value))


def frac_str(value: Fraction) -> str:
    """:func:`pair_str` of ``value``'s numerator and denominator."""
    return pair_str(value.numerator, value.denominator)


def pair_str(num: int, den: int) -> str:
    """``num/den`` in full; a side past the digit limit goes to :func:`exact_str`."""
    try:
        return f"{num}/{den}"
    except ValueError:
        return f"{exact_str(num)}/{exact_str(den)}"


def frac_dec(value: Fraction) -> str:
    """:func:`pair_dec` of ``value``'s numerator and denominator."""
    return pair_dec(value.numerator, value.denominator)


def pair_dec(num: int, den: int) -> str:
    """num/den to 12 significant digits.

    DEC12 converts short ints itself, exactly; a long side sends both
    through :func:`int_decimal`.
    """
    if _is_long(num) or _is_long(den):
        num, den = int_decimal(num), int_decimal(den)
    return str(DEC12.divide(num, den))

def emit(payload: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        sys.stdout.write(json_text(payload) + "\n")
    else:
        _emit_text(payload)


class Verbatim(str):
    """JSON text, already rendered, that json_text writes as it stands.

    json_text checks nothing in it: its text must be valid JSON that needs
    no escaping.
    """


# The writer of each JSON scalar type; json_text looks a value up by its exact
# type, and a subclass by the first of its bases found here.
_SCALAR_WRITERS = {
    Verbatim: str,
    str: encode_basestring_ascii,
    int: exact_str,
    float: float.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with every int in full.

    Writes dicts with ``str`` keys, lists, str, int, float, bool and None,
    subclasses of str, int and float included; anything else raises
    ``TypeError``.  A :class:`Verbatim` str is written as it stands.  A
    scalar item of a list or dict goes straight to its writer, without a
    recursive call.
    """
    get = _SCALAR_WRITERS.get
    write = get(type(value))
    if write is not None:
        return write(value)
    inner = newline + "  "
    if isinstance(value, list):
        ends = "[]"
        items = [
            write(item) if (write := get(type(item))) else json_text(item, inner)
            for item in value
        ]
    elif isinstance(value, dict):
        ends = "{}"
        items = [
            encode_basestring_ascii(key)
            + ": "
            + (write(item) if (write := get(type(item := value[key]))) else json_text(item, inner))
            for key in sorted(value)
        ]
    else:
        for kind in type(value).__mro__:
            if kind in _SCALAR_WRITERS:
                return _SCALAR_WRITERS[kind](value)
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            sys.stdout.write(f"{pad}{key}:\n")
            _emit_text(value, indent + 1)
        elif isinstance(value, list):
            sys.stdout.write(f"{pad}{key}: [{len(value)} entries]\n")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + 1)
                    sys.stdout.write("\n")
                else:
                    sys.stdout.write(f"{pad}  {exact_str(item)}\n")
        else:
            sys.stdout.write(f"{pad}{key}: {exact_str(value)}\n")


# The cells of a gap point, in csv column order; the first four are JSON ints.
GAP_KEYS = ("n", "d", "k", "u", "v", "v_dec", "upper_v", "upper_v_dec", "ratio", "ratio_dec")
GAP_INT_KEYS = 4


def _gap_row(
    n: int,
    d: int,
    k: int,
    u: int,
    v: tuple[int, int],
    upper_v: tuple[int, int],
    ratio: tuple[int, int],
) -> tuple[str, ...]:
    """A point's cells in ``GAP_KEYS`` order, from ``symmetric._gap_ints``'s reduced pairs.

    When no fraction side is past ``SPLIT_BITS`` bits, the cells are plain
    f-strings and DEC12 quotients.  A lowered digit limit can still refuse
    such a short int; then, as for a long side, each cell goes through
    exact_str, pair_str and pair_dec, which write it the same.
    """
    (vn, vd), (un, ud), (rn, rd) = v, upper_v, ratio
    if not _is_long(max(vn, vd, un, ud, rn, rd)):
        divide = DEC12.divide
        try:
            return (
                f"{n}",
                f"{d}",
                f"{k}",
                f"{u}",
                f"{vn}/{vd}",
                str(divide(vn, vd)),
                f"{un}/{ud}",
                str(divide(un, ud)),
                f"{rn}/{rd}",
                str(divide(rn, rd)),
            )
        except ValueError:
            pass
    return (
        exact_str(n),
        exact_str(d),
        exact_str(k),
        exact_str(u),
        pair_str(vn, vd),
        pair_dec(vn, vd),
        pair_str(un, ud),
        pair_dec(un, ud),
        pair_str(rn, rd),
        pair_dec(rn, rd),
    )


def _gap_layout(newline: str) -> tuple[str, itemgetter]:
    """A gap point's JSON at this indentation, as a %-format, and the getter of a row's cells.

    json_text renders a placeholder point whose cells are all the mark
    ``%s``: an int cell's as Verbatim, bare, and a string cell's as str,
    which it quotes.  It writes a dict's keys sorted, so the getter takes a
    row's cells in ``sorted(GAP_KEYS)`` order; key order and indentation
    stay json_text's.  The cells fill the marks unescaped, which holds as
    every cell is made of digits, '/', '.', 'E', '+' and '-'.
    """
    text = json_text(
        {key: Verbatim("%s") if i < GAP_INT_KEYS else "%s" for i, key in enumerate(GAP_KEYS)},
        newline,
    )
    return text, itemgetter(*sorted(range(len(GAP_KEYS)), key=GAP_KEYS.__getitem__))


def emit_gap(payload: dict, points: list[tuple], args: argparse.Namespace) -> None:
    """Write a ``sym gap`` report: ``payload`` and its points, one row of ``_gap_row`` cells each.

    A point is its (n, d, k) and ``symmetric._gap_ints``'s u and reduced
    pairs.  csv joins each row's cells under the ``GAP_KEYS`` header; JSON
    fills them into the one ``_gap_layout`` of the report's points, and
    text takes them as dicts.
    """
    rows = [_gap_row(*point) for point in points]
    if args.format == "csv":
        sys.stdout.write(",".join(GAP_KEYS) + "\n")
        for row in rows:
            sys.stdout.write(",".join(row) + "\n")
        return
    if args.format == "json":
        # The points are the items of a list in the report's top-level dict.
        layout, cells = _gap_layout("\n" + "  " * 2)
        points = [Verbatim(layout % cells(row)) for row in rows]
    else:
        points = [dict(zip(GAP_KEYS, row)) for row in rows]
    emit({**payload, "points": points}, args)


SKIPPED = "skipped:caps:"  # the status of a value a cap skipped, before the cap's name
ZERO_POLY = "zero-poly"  # the status of the zero polynomial's value, 0


class Stages:
    """The wall time of each stage of one report, by name, and the record of each capped value."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}  # the report's timings_seconds, under --timing
        self.start = time.monotonic()

    def lap(self, name: str) -> None:
        """Add the time since the last lap, or since the start, to stage ``name``."""
        now = time.monotonic()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self.start
        self.start = now

    def record(self, name: str, compute: Callable[[], int] | None, zero: bool = False) -> dict:
        """The ``{value, status}`` record of ``compute()``, run as the lap of stage ``name``:
        ``computed``, or ``skipped:caps:<what>`` (no value) on a cap; ``not-requested``
        without ``compute``, and ``zero-poly`` (value 0) for the zero polynomial."""
        if zero:
            return {"value": 0, "status": ZERO_POLY}
        if compute is None:
            return {"value": None, "status": "not-requested"}
        try:
            entry = {"value": compute(), "status": "computed"}
        except ResourceLimitError as err:
            entry = {"value": None, "status": SKIPPED + err.what}
        self.lap(name)
        return entry
