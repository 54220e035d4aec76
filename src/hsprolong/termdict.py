"""Sparse term-dict arithmetic shared by every ring, and the Leibniz fold on it.

A term dict maps keys to nonzero coefficients: exponent tuples in ParamPoly,
sorted tuples of symbol codes in SparsePoly, multi-indices in
TruncatedElement.  Each ring passes its own key product to ``mul``; a key
product returns None for a product outside the ring's truncation, which is
dropped.

``leibniz`` is the one expansion engine behind ``apply_d``,
``layered_expand_each``, ``outer_derive`` and ``derive_each``: the
Hasse-Schmidt Leibniz rule d_alpha(gh) = sum over beta + gamma = alpha of
d_beta(g) d_gamma(h), read as a product of multi-index tables cut off by a
monomial ideal.  Such a cut keeps a down-closed set of indices, and that set
is the one truncation rule: each caller passes the set it already built, and
the fold keeps an index sum only if it lies in it.  ``apply_d`` and
``outer_derive`` pass the box below their one index, ``layered_expand_each``
the down-closure of its list of indices (each read off one pass), and
``derive_each`` the simplex |alpha| <= m (every d_alpha, |alpha| <= m, off
one pass per term).

On a symbol the rule is integer combinatorics: d_u(x) is a plain integer n
times one symbol code y, a piece (u, n, y) (comp_count(u, beta) and
x^(beta+u) for ``apply_d`` and ``derive_each``, C(i + w, w) for
``outer_derive``'s outer shift, 1 and d_u X_v x for ``layered_expand_each``).
So the fold expands each monomial's table over the integers and multiplies
the base coefficient's table in last, and its sums are the ring's term dicts
once zero sums are left out.  It takes a sequence of polynomials over one
field and builds each distinct code's pieces once for the sequence; a
monomial's codes are multiplied in one by one, a repeated code once per
occurrence.

``integer_map`` is the same fold read as a ring map: each symbol goes to the
sum of its pieces n * y, and each monomial's image is scaled by the term's
coefficient alone.  It is one ``leibniz`` call over the one index (), so the
pieces of one symbol must be distinct symbols.  phi and psi are such maps,
with n = C(i + k, k) (+-1)^k, and so is theta, with one piece per symbol.
``leibniz`` holds the module's one accumulation loop.

The text form of a term dict is written here too, by four rules that every
ring shares: ``render_power`` writes one factor (``s`` or ``s^2``),
``render_powers`` a power product of such factors (``s^2*t1``, exponent 0
left out), ``render_product`` a rendered coefficient beside it (1 and -1 are
not written), and ``render_sum`` joins the pieces (a piece that starts with
``-`` is subtracted, no pieces give ``0``).  A plain number is written with
``str``, a ring element by ``render_term``: alone as its ``render()``, beside
a power product as its ``render_head()``.

``Ring`` is the base of every ring class: it derives a - b, str and repr from
the ring's own +, unary - and render.

The module is internal: rings reach it through the module object, so its
functions never show up as names of their own in a ring's namespace.
"""

from __future__ import annotations

from operator import add as _add, mul as _mul
from typing import Callable, Iterable, Mapping, Sequence


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
    """The product of two term dicts under the key product ``key``.

    Both inputs must be zero-free, and ``key`` injective in each factor: for
    a fixed key of one factor, distinct keys of the other give distinct
    products (or None).  Every ring's key product (a sum of exponent tuples,
    a merge of sorted code tuples, a shift of indices) is, and no coefficient
    ring has zero divisors, so a product with a one-term factor is one map
    over the other factor's terms: no sums and no zeros to drop."""
    if len(b) == 1:
        ((k2, c2),) = b.items()
        return {k: c1 * c2 for k1, c1 in a.items() if (k := key(k1, k2)) is not None}
    if len(a) == 1:
        ((k1, c1),) = a.items()
        return {k: c1 * c2 for k2, c2 in b.items() if (k := key(k1, k2)) is not None}
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


def leibniz(
    fs: Sequence, closure: Iterable[tuple], collect: Sequence, coeff_table: Callable, pieces_of: Callable, ring
) -> list[dict]:
    """For each f of fs, a non-empty sequence of polynomials over one field,
    the table {index: the t^index coefficient of the sum over the terms c * x_1^e_1 ... of f of

        coeff_table(c) * pieces_of(x_1)^e_1 * ...}

    for every index in the non-empty ``collect``, in that order (zeros
    included), as elements of ``ring``.  Products are truncated to
    ``closure``, a down-closed set of indices that holds ``collect``: every
    index at or below a member is a member, and a product whose index is not
    a member is dropped.

    ``pieces_of(x)`` lists triples (u, n, y): d_u(x) = n * y for an index u of
    the closure, a plain integer n and one symbol code y, a distinct y for each
    u.  It runs once per distinct code of fs and may leave out the u whose n
    vanishes in the field.  Each monomial's table is expanded over the
    integers (``_expand``), and in characteristic p each entry is reduced mod
    p once; an entry that vanishes there (C(p, 1)) is dropped.  Only then
    does ``coeff_table(c)``, a map from multi-indices to base elements,
    enter: one scale by the plain int per pair of its entry and a table
    entry whose index sum is collected, and a sum only where two terms of f
    meet at the same output monomial.  Only a sum can cancel, so zeros are looked for only in a
    polynomial where two terms met.
    """
    field = fs[0].field
    if any(f.field != field for f in fs):
        raise ValueError("the polynomials of one fold must be over one field")
    p = field.characteristic
    expand = _expand(pieces_of, frozenset(closure), (0,) * len(collect[0]))
    out = []
    for f in fs:
        sums: dict = {k: {} for k in collect}
        met = False  # whether two terms met: only a sum can be zero
        for coeff, table in expand(f):
            # (gamma, D_gamma(c), gamma != 0); the zero index moves no table entry
            coeffs = [(g, v, any(g)) for g, v in coeff_table(coeff).items() if v]
            for (index, mono), n in table.items():
                if n != 1:
                    if p:
                        n %= p
                    if not n:
                        continue
                for g, v, moved in coeffs:
                    # a sum outside the closure is at or below no collected index: the lookup misses it
                    terms = sums.get(exp_add(g, index) if moved else index)
                    if terms is not None:
                        c = v if n == 1 else v * n
                        s = terms.get(mono)
                        terms[mono] = c if s is None else s + c
                        met = met or s is not None
        out.append({k: ring._of(field, _drop_zeros(sums[k]) if met else sums[k]) for k in collect})
    return out


def integer_map(f, pieces_of: Callable, ring):
    """f with every symbol x replaced by the sum of n * y over the pairs (n, y)
    of pieces_of(x), as an element of ``ring``; base coefficients are fixed.
    ``leibniz`` over the one index (), so the pieces of one symbol must be
    distinct symbols.
    """
    return leibniz((f,), [()], [()], lambda c: {(): c}, lambda x: [((), n, y) for n, y in pieces_of(x)], ring)[0][()]


def runs(mono: tuple) -> tuple:
    """The (code, exponent) pairs of a monomial, a sorted tuple of codes with repetition."""
    return tuple([(c, mono.count(c)) for c in dict.fromkeys(mono)])


def _expand(pieces_of: Callable, closure: frozenset, zero: tuple) -> Callable:
    """expand(f), which yields for each term c * x_1^e_1 ... of f the pair
    (c, {(index, monomial): n}), the integer table of pieces_of(x_1)^e_1 * ...
    truncated to ``closure``.  Each code's pieces are built once for every f
    that expand is called on, and a code is multiplied in once per occurrence."""

    # a table key is (index, monomial): indices add within the closure, codes merge
    def pair_key(a: tuple, b: tuple):
        k = exp_add(a[0], b[0])
        return (k, tuple(sorted(a[1] + b[1]))) if k in closure else None

    unit = {(zero, ()): 1}
    pieces: dict = {}  # a code -> the table of its pieces

    def expand(f):
        for mono, coeff in f.terms.items():
            table = unit
            for code in mono:
                x = pieces.get(code)
                if x is None:
                    x = pieces[code] = {(u, (y,)): n for u, n, y in pieces_of(code)}
                table = x if table is unit else mul(table, x, pair_key)
            yield coeff, table

    return expand


# -- text form -----------------------------------------------------------------


def render_power(name: str, e: int) -> str:
    """One factor of a power product, e >= 1: ``s`` or ``s^2``."""
    return name if e == 1 else f"{name}^{e}"


def render_powers(pairs: Iterable) -> str:
    """The power product of (name, exponent) pairs: ``s^2*t1``, exponent 0 left out."""
    return "*".join(render_power(n, e) for n, e in pairs if e)


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
