"""Exact combinatorics helpers: binomials, bounded multi-index enumeration, cleared coefficients.

The packed sub-index enumerators are the inner loop of derivative-matrix
assembly.  They yield each beta <= alpha as a packed int, a sum of slot
units taken over alpha's support only, so a sub-index costs no work per
variable: the C-level ``combinations`` and ``product`` draw the units and
``sum`` adds them.  They draw no candidate that they then discard, so
their time is proportional to what they yield.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, islice, product
from typing import Iterable, Iterator, Sequence


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer, 0 whenever the arguments are out of range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def packed_subsets(units: Sequence[int], k: int) -> Iterator[int]:
    """The sums of the k-subsets of ``units``: the packed 0/1 sub-indices of order k.

    A k past ``len(units)`` is not handed to ``combinations``, which would allocate k indices.
    """
    return map(sum, combinations(units, k)) if 0 <= k <= len(units) else iter(())


def packed_sub_indices(
    alpha: tuple[int, ...], units: Sequence[int], orders: range
) -> Iterator[int]:
    """Every beta with 0 <= beta <= alpha and sum(beta) in ``orders``, packed, each once.

    ``orders`` is a range of naturals, step 1.  Variable i counts
    ``units[i]`` in the packed key.  The keys come one
    order after another; within an order their sequence is unspecified.
    The variables with alpha_i == 1 are placed by ``packed_subsets``; for a
    0/1 alpha that is the whole walk.  Otherwise a depth-first walk over
    the variables with alpha_i >= 2, carrying the packed key of the
    exponents chosen so far, enters only the branches that can still reach
    the order, and under each of its leaves the rest of the order goes to
    the ones.  A branch with nothing left to place, or with room for
    exactly what is left, is a leaf of one key at once; then an inner node
    forks, or has one child, a leaf, so the walk costs O(1) per key.
    Orders outside 0..deg alpha have no key and are cut off first (one
    order of a 0/1 alpha goes straight to ``packed_subsets``, which refuses
    it), so no candidate is drawn and thrown away, and an order past
    deg alpha returns at once.  A term's setup is shared by all its orders.
    """
    # Selected in C: a term's setup takes no Python step per variable.
    ones = list(compress(units, map((1).__eq__, alpha)))
    multi = list(compress(zip(alpha, units), map((1).__lt__, alpha)))
    if not multi and len(orders) == 1:
        return packed_subsets(ones, orders[0])
    # room[j]: the largest order that multi[j:] and the ones can still
    # take; full[j]: the packed key that takes all of it
    room = [len(ones)] * (len(multi) + 1)
    full = [sum(ones)] * (len(multi) + 1)
    for j in range(len(multi) - 1, -1, -1):
        a, u = multi[j]
        room[j] = room[j + 1] + a
        full[j] = full[j + 1] + a * u
    if orders.stop > room[0] + 1:  # no key past deg alpha
        orders = range(orders.start, room[0] + 1)
    if not multi:
        return chain.from_iterable(map(partial(packed_subsets, ones), orders))

    def leaves() -> Iterator[Iterable[int]]:
        for order in orders:
            stack = [(0, order, 0)]  # (next multi variable, order left, packed key so far)
            while stack:
                j, rem, base = stack.pop()
                if rem == 0:
                    yield (base,)
                elif rem == room[j]:
                    yield (base + full[j],)
                elif j == len(multi):
                    yield map(base.__add__, packed_subsets(ones, rem))
                else:
                    a, u = multi[j]
                    for b in range(max(0, rem - room[j + 1]), min(a, rem) + 1):
                        stack.append((j + 1, rem - b, base + b * u))

    return chain.from_iterable(leaves())


def packed_box(
    alpha: tuple[int, ...],
    units: Sequence[int],
    *,
    drop_zero: bool = False,
    drop_top: bool = False,
) -> Iterator[int]:
    """Every beta with 0 <= beta <= alpha, packed, in lex order of beta.

    One ``product`` over the support of alpha draws each slot's multiples
    of its unit, and ``sum`` packs them; with the units decreasing, x1 in
    the top slot, the keys ascend.  beta = 0 comes first and beta = alpha
    last: ``drop_zero`` and ``drop_top`` leave those out.
    """
    slots = [range(0, (a + 1) * u, u) for a, u in compress(zip(alpha, units), alpha)]
    box = map(sum, product(*slots))
    if not (drop_zero or drop_top):
        return box
    return islice(box, int(drop_zero), math.prod(map(len, slots)) - drop_top)


def all_sub_indices(alpha: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All beta with 0 <= beta_i <= alpha_i (componentwise), in lex order."""
    return product(*(range(a + 1) for a in alpha))


def cleared(coefs: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """The common denominator L of ``coefs`` and the integers L * c, in order.

    L is the ``math.lcm`` of the denominators, 1 for no coefficients or
    only ints.  The one rule by which the inner layers turn exact
    coefficients into the integers they sum and rank.
    """
    coefs = list(coefs)
    clear = math.lcm(*[c.denominator for c in coefs])  # a list: see exact.assemble
    return clear, [c.numerator * (clear // c.denominator) for c in coefs]
