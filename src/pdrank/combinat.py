"""Exact combinatorics helpers: binomials and bounded multi-index enumeration.

The sub-index enumerators are the inner loop of derivative-matrix assembly.
Each index they yield costs O(n) work and they draw no candidate that they
then discard, so their time is proportional to what they yield.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterator


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer, 0 whenever the arguments are out of range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def sub_indices_of_order(alpha: tuple[int, ...], order: int) -> Iterator[tuple[int, ...]]:
    """All beta with 0 <= beta_i <= alpha_i and sum(beta) == order, each once.

    The order of the indices is unspecified.  A recursion over the
    variables with alpha_i >= 2 enters only the branches that can still
    reach ``order``; under each of its leaves the rest of the order is
    spread by ``combinations`` over the variables with alpha_i == 1 (for a
    0/1 alpha that is the whole walk).  No candidate is drawn and thrown
    away, so each index costs O(n), and k > deg alpha returns at once.
    """
    if not 0 <= order <= sum(alpha):
        return iter(())
    ones = [i for i, a in enumerate(alpha) if a == 1]
    multi = [i for i, a in enumerate(alpha) if a > 1]
    # room[j]: the largest order that multi[j:] and the ones can still take
    room = [len(ones)] * (len(multi) + 1)
    for j in range(len(multi) - 1, -1, -1):
        room[j] = room[j + 1] + alpha[multi[j]]
    beta = [0] * len(alpha)

    def rec(j: int, rem: int) -> Iterator[tuple[int, ...]]:
        if j == len(multi):
            for chosen in combinations(ones, rem):
                out = beta.copy()
                for i in chosen:
                    out[i] = 1
                yield tuple(out)
            return
        i = multi[j]
        for b in range(max(0, rem - room[j + 1]), min(alpha[i], rem) + 1):
            beta[i] = b
            yield from rec(j + 1, rem - b)
        beta[i] = 0

    return rec(0, order)


def all_sub_indices(alpha: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All beta with 0 <= beta_i <= alpha_i (componentwise), in lex order."""
    return product(*(range(a + 1) for a in alpha))


def lcm_all(values: Iterator[int] | list[int]) -> int:
    """Least common multiple of positive integers, 1 for an empty input."""
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out
