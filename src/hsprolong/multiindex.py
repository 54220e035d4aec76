"""Multi-indices for n commuting derivation families.

A multi-index is a plain tuple of naturals of length n.  The canonical order
everywhere (enumeration, rendering) is graded lexicographic:
ascending total size, and within one size descending tuple order, so for
n = 2 the order starts (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
"""

from __future__ import annotations

import itertools
import math
from operator import neg, sub
from typing import Iterable, Iterator, Sequence

MultiIndex = tuple[int, ...]


def multiindex(alpha: Sequence[int], n: int) -> tuple[int, ...]:
    """alpha as a tuple, once it is checked to be n naturals."""
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"multi-index length {len(alpha)} != derivation count {n}")
    if any(k < 0 for k in alpha):
        raise ValueError(f"multi-index entries must be naturals, got {alpha}")
    return alpha


def natural(k: int) -> int:
    """k, once it is checked to be a natural derivative order."""
    if k < 0:
        raise ValueError(f"derivative order must be a natural, got {k}")
    return k


def zero_index(n: int) -> tuple[int, ...]:
    return (0,) * n


def unit_index(n: int, i: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] = 1
    return tuple(e)


def index_size(alpha: Sequence[int]) -> int:
    return sum(alpha)


def index_add(alpha: Sequence[int], beta: Sequence[int]) -> tuple[int, ...]:
    if len(alpha) != len(beta):
        raise ValueError("multi-index length mismatch")
    return tuple(a + b for a, b in zip(alpha, beta))


def index_leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Coordinatewise partial order (not the size comparison)."""
    return len(alpha) == len(beta) and all(a <= b for a, b in zip(alpha, beta))


def graded_lex_key(alpha: Sequence[int]) -> tuple:
    """Sort key realizing the canonical graded-lex order."""
    return (sum(alpha), tuple(map(neg, alpha)))


def graded_lex_rank(alpha: Sequence[int]) -> int:
    """The position of alpha in the canonical order of its length, by the
    combinatorial number system: the sum over j of C(t_j + j - 1, j), t_j the
    sum of the last j entries.  For n = 1 it is alpha[0]."""
    rank = tail = 0
    for j, a in enumerate(reversed(alpha), 1):
        tail += a
        rank += math.comb(tail + j - 1, j)
    return rank


def graded_lex_unrank(rank: int, n: int) -> tuple[int, ...]:
    """The multi-index of length n at ``rank``, the inverse of graded_lex_rank:
    greedily, the largest c with C(c, j) <= rank, for j = n down to 1."""
    tails = []
    for j in range(n, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= rank:
            c += 1
        rank -= math.comb(c, j)
        tails.append(c - j + 1)
    return tuple(map(sub, tails, tails[1:] + [0]))


def _compositions(n: int, s: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        if s == 0:
            yield ()
        return
    if n == 1:
        yield (s,)
        return
    for head in range(s, -1, -1):
        for rest in _compositions(n - 1, s - head):
            yield (head,) + rest


def enumerate_multiindices(n: int, m: int) -> list[tuple[int, ...]]:
    """All multi-indices of length n and size <= m in graded-lex order.

    The result has length C(n+m, n).
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be naturals")
    out: list[tuple[int, ...]] = []
    for s in range(m + 1):
        out.extend(_compositions(n, s))
        if n == 0:
            break
    return out


def indices_below(alpha: Sequence[int]) -> list[tuple[int, ...]]:
    """All beta <= alpha in the coordinatewise order, deterministic order."""
    return [tuple(b) for b in itertools.product(*(range(a + 1) for a in alpha))]


def down_closure(indices: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every index at or below one of ``indices``, once each, by ascending size."""
    return sorted(dict.fromkeys(b for alpha in indices for b in indices_below(alpha)), key=sum)


def splittings(alpha: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs (beta, gamma) with beta + gamma = alpha (Leibniz sums)."""
    return [(beta, tuple(map(sub, alpha, beta))) for beta in indices_below(alpha)]
