"""Sparse term-dict arithmetic shared by every ring, and the Leibniz fold on it.

A term dict maps keys to nonzero coefficients.  The keys are exponent tuples
in ParamPoly, symbol monomials in SparsePoly and multi-indices in
TruncatedElement; each ring passes its own key product to ``mul``.  A key
product returns None for a product that falls outside a truncation, and that
term is dropped.

``leibniz`` is the one expansion engine behind ``apply_d``,
``layered_expand``, ``outer_derive`` and ``derive_upto``: the Hasse-Schmidt
Leibniz rule d_alpha(gh) = sum over beta + gamma = alpha of d_beta(g) d_gamma(h),
read as a product of multi-index tables under a truncating key product.  The
single-index callers truncate to the box below their index (``box_key``); the
all-orders table truncates to total size <= m (``size_key``) and reads every
d_alpha, |alpha| <= m, off one product per term.

The module is internal: rings reach it through the module object, so its
functions never show up as names of their own in a ring's namespace.
"""

from __future__ import annotations

from operator import add as _add, le as _le
from typing import Callable, Iterable, Mapping, Sequence


def _drop_zeros(out: dict) -> dict:
    # deletes in place: rebuilding the dict would hash every key once more
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def add(terms: Mapping, pairs: Iterable) -> dict:
    """terms plus the (key, coeff) pairs: equal keys are summed, zero sums dropped."""
    out = dict(terms)
    get = out.get
    for k, c in pairs:
        s = get(k)
        out[k] = c if s is None else s + c
    return _drop_zeros(out)


def mul(a: Mapping, b: Mapping, key: Callable) -> dict:
    """The product of two term dicts under the key product ``key``."""
    out: dict = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = key(k1, k2)
            if k is not None:
                s = get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
    return _drop_zeros(out)


def scale(terms: Mapping, c) -> dict:
    """Every coefficient times c; c = 0 gives the empty dict."""
    return {k: v * c for k, v in terms.items()} if c else {}


def power(x, k: int, one):
    """x**k for k >= 0 by repeated squaring, in any ring with ``*``."""
    acc = one
    while k:
        if k & 1:
            acc = acc * x
        k >>= 1
        if k:
            x = x * x
    return acc


def exp_add(e1: tuple, e2: tuple) -> tuple:
    """Coordinatewise sum of two exponent tuples or multi-indices."""
    return tuple(map(_add, e1, e2))


def box_key(top: tuple) -> Callable:
    """Multi-index sum, None unless the sum is <= top coordinatewise."""

    def key(a: tuple, b: tuple):
        k = exp_add(a, b)
        return k if all(map(_le, k, top)) else None

    return key


def size_key(m: int) -> Callable:
    """Multi-index sum, None unless the sum has total size <= m."""

    def key(a: tuple, b: tuple):
        k = exp_add(a, b)
        return k if sum(k) <= m else None

    return key


def leibniz(
    f, key: Callable, collect: Sequence, coeff_table: Callable, pieces_of: Callable, ring
) -> dict:
    """{index: sum over the terms c * x_1^e_1 ... of f of the t^index coefficient of

        coeff_table(c) * pieces_of(x_1)^e_1 * ...}

    for every index in ``collect``, in that order (zero sums included).
    ``coeff_table(c)`` maps multi-indices to base elements, ``pieces_of(x)``
    maps them to elements of ``ring``; products are taken under the truncating
    key product ``key``.  ``pieces_of`` runs once per symbol.
    """
    field = f.field
    pieces: dict = {}
    sums: dict = {}
    for mono, coeff in f.terms.items():
        table = {g: ring.const(field, v) for g, v in coeff_table(coeff).items() if v}
        for sym, e in mono:
            piece = pieces.get(sym)
            if piece is None:
                piece = pieces[sym] = pieces_of(sym)
            for _ in range(e):
                table = mul(table, piece, key)
        for k in collect:
            got = table.get(k)
            if got is not None:
                s = sums.get(k)
                sums[k] = got if s is None else s + got
    zero = ring.zero(field)
    return {k: sums.get(k, zero) for k in collect}
