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
d_alpha, |alpha| <= m, off one pass per term.

On a symbol the rule is integer combinatorics, and every caller's pieces say
so: d_u(x) is a plain integer n times one symbol y.  For ``apply_d`` and
``derive_upto`` n is comp_count(u, beta) = C(beta + u, u) and y = x^(beta+u);
for ``outer_derive`` n is the binomial C(i + w, w) of the outer shift; for
``layered_expand`` n is 1 and y is the generator d_u X_v x.  So the fold
expands each monomial's table over the integers, reduces each entry into the
field once, and only then multiplies the base coefficient's table in.  The
rational-function work is left to that table, D_gamma(c) or c alone, and to
the sums where two terms meet at the same output monomial.

``integer_map`` is the same fold read as a ring map: each symbol goes to the
sum of its pieces n * y, and each monomial's image is scaled by the term's
coefficient alone.  It is one ``leibniz`` call whose key product drops every
index: a piece's index enters the fold as key(zero, u), so here it is (), and
the pieces of one symbol must be distinct symbols.  phi and psi are such
maps, with n = C(i + k, k) (+-1)^k, and so is theta, with one piece per
symbol.  ``leibniz`` holds the module's one accumulation loop, and a sum that
cancels is dropped by one ``_drop_zeros`` pass per collected index, as in
``add`` and ``mul``.

The text form of a term dict is written here too, by three rules that every
ring shares: ``render_powers`` writes a key as a power product (``s^2*t1``,
exponent 0 left out), ``render_product`` writes a rendered coefficient beside
it (a coefficient of 1 or -1 is not written), and ``render_sum`` joins the
pieces (a piece that starts with ``-`` is subtracted, no pieces give ``0``).
A ring's coefficient brings its own rendering: a plain number is written with
``str``, a ring element by ``render_term``, which writes the element alone as
its ``render()`` and beside a power product as its ``render_head()``.

``Ring`` is the base of every ring class: it derives a - b, str and repr from
the ring's own +, unary - and render.

The module is internal: rings reach it through the module object, so its
functions never show up as names of their own in a ring's namespace.
"""

from __future__ import annotations

from operator import add as _add, attrgetter, le as _le, mul as _mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class Ring:
    """The operators every ring derives from its own: a - b is a + (-b), and
    str and repr show ``render()``.  Each ring keeps its own +, * and render,
    since the benchmark's tracer times only a class's own methods."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


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


def power(x, k: int, one, mul: Callable = _mul):
    """x**k for k >= 0 by repeated squaring, in any ring with product ``mul``."""
    acc = one
    while k:
        if k & 1:
            acc = mul(acc, x)
        k >>= 1
        if k:
            x = mul(x, x)
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
    """{index: the t^index coefficient of the sum over the terms c * x_1^e_1 ... of f of

        coeff_table(c) * pieces_of(x_1)^e_1 * ...}

    for every index in the non-empty ``collect``, in that order (zeros
    included), as elements of ``ring``; products are taken under the
    truncating key product ``key``.

    ``pieces_of(x)`` maps multi-indices u to pairs (n, y): d_u(x) = n * y for a
    plain integer n and one symbol y, a distinct y for each u.  It runs once
    per symbol and may leave out the u whose n vanishes in the field; a
    piece's index is key(zero, u), so a key product that drops indices
    (``integer_map``) maps every piece to the index ().  Each monomial's table
    {(index, monomial): n} is expanded over the integers (``_expand``), and
    each entry is reduced into the field once; an entry that vanishes there
    (C(p, 1) in characteristic p) is dropped.  Only then does
    ``coeff_table(c)``, a map from multi-indices to base elements, enter: one
    base-element scale per pair of its entry and a table entry whose index
    product is collected, and a sum only where two terms of f meet at the same
    output monomial.  This is the module's one accumulation loop.
    """
    field = f.field
    scalar = field.scalar
    symbols, tables = _expand(f, pieces_of, key, (0,) * len(collect[0]))
    sums: dict = {k: {} for k in collect}
    for coeff, table in tables:
        # (gamma, D_gamma(c), gamma != 0); the zero index moves no table entry
        coeffs = [(g, v, any(g)) for g, v in coeff_table(coeff).items() if v]
        for (index, ranks), n in table.items():
            if n != 1:
                n = scalar(n)
                if not n:
                    continue
            for g, v, moved in coeffs:
                terms = sums.get(key(g, index) if moved else index)
                if terms is not None:
                    c = v if n == 1 else v * n
                    s = terms.get(ranks)
                    terms[ranks] = c if s is None else s + c
    return {k: _of_ranks(ring, field, _drop_zeros(sums[k]), symbols) for k in collect}


def integer_map(f, pieces_of: Callable, ring):
    """f with every symbol x replaced by the sum of n * y over its pieces
    (n, y) = pieces_of(x).values(), a plain integer times one symbol, as an
    element of ``ring``; base coefficients are fixed.

    ``leibniz`` with a key product that drops every index: each monomial's
    image is expanded over the integers and reduced into the field once, and
    only then scaled by the term's base coefficient.  The pieces of one
    symbol must be distinct symbols, since their indices no longer tell them
    apart.
    """
    return leibniz(f, _no_index, [()], lambda c: {(): c}, pieces_of, ring)[()]


def _no_index(a: tuple, b: tuple) -> tuple:
    return ()


def _expand(f, pieces_of: Callable, key: Callable, zero: tuple) -> tuple[list, Iterator]:
    """(symbols, tables): the output symbols in rank order, and for each term
    c * x_1^e_1 ... of f the pair (c, table) where

        table = {(index, ranks): n}  with  pieces_of(x_1)^e_1 * ... = sum of n * t^index * y_ranks

    over plain integers n, not yet reduced into the field.  Indices multiply
    under ``key`` from ``zero`` (a None drops the product) and ranks merge;
    each power pieces_of(x)^e is built once per call."""
    symbols, single = _ranked_pieces(f, pieces_of, key, zero)

    # a table key is (index, sorted ranks): indices add under key, ranks merge
    def pair_key(a: tuple, b: tuple):
        k = key(a[0], b[0])
        return None if k is None else (k, tuple(sorted(a[1] + b[1])))

    def tables():
        unit = {(zero, ()): 1}
        powers: dict = {}
        for mono, coeff in f.terms.items():
            table = unit
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    sym, e = factor
                    power = x = single[sym]
                    for _ in range(e - 1):
                        power = mul(power, x, pair_key)
                    powers[factor] = power
                table = power if table is unit else mul(table, power, pair_key)
            yield coeff, table

    return symbols, tables()


def _of_ranks(ring, field, terms: dict, symbols: list):
    """The ring element on a zero-free {ranks: coefficient} dict."""
    return ring._of(field, {_monomial(ranks, symbols): c for ranks, c in terms.items()})


def _ranked_pieces(f, pieces_of: Callable, key: Callable, zero: tuple) -> tuple[list, dict]:
    """(symbols, {x: {(key(zero, u), (rank of y,)): n}}) for the pieces (n, y)
    of every symbol x of f.  Output symbols are ranked in sort_key order, so a
    sorted tuple of ranks names a monomial by a key of plain ints."""
    pieces: dict = {}
    for mono in f.terms:
        for sym, _ in mono:
            if sym not in pieces:
                pieces[sym] = pieces_of(sym)
    outputs = {y for table in pieces.values() for _, y in table.values()}
    symbols = sorted(outputs, key=attrgetter("sort_key"))
    rank = {y: r for r, y in enumerate(symbols)}
    single = {
        sym: {(key(zero, u), (rank[y],)): n for u, (n, y) in table.items()} for sym, table in pieces.items()
    }
    return symbols, single


def _monomial(ranks: tuple, symbols: list) -> tuple:
    """The monomial ((symbol, exponent), ...) named by a sorted tuple of ranks."""
    return tuple((symbols[r], ranks.count(r)) for r in dict.fromkeys(ranks))


# -- text form -----------------------------------------------------------------


def render_powers(pairs: Iterable) -> str:
    """The power product of (name, exponent) pairs: ``s^2*t1``, exponent 0 left out."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in pairs if e)


def render_product(coeff: str, body: str) -> str:
    """The rendered coefficient times the power product body; 1 and -1 are not written."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff}*{body}"


def render_term(coeff, body: str) -> str:
    """A ring element beside the power product body: its own text when body is
    empty, else its ``render_head()`` before body."""
    return render_product(coeff.render_head(), body) if body else coeff.render()


def render_sum(pieces: Iterable[str]) -> str:
    """The pieces as a sum: a piece that starts with '-' is subtracted; no pieces give 0."""
    it = iter(pieces)
    out = next(it, "0")
    for p in it:
        out += " - " + p[1:] if p[0] == "-" else " + " + p
    return out
