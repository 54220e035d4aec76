"""Sparse polynomials in opaque symbols with rational-function coefficients.

A monomial is a tuple of (symbol, exponent) pairs with exponents >= 1, kept
sorted by the symbol's ``sort_key``; terms map monomials to nonzero BaseElem
coefficients.  Symbols are value objects that only need ``sort_key``,
``render(names)`` and value equality with a stored hash, so the same
machinery carries both the differential symbols x_i^(alpha) and the
two-layer symbols of the isomorphism checks.

Canonical term order for rendering: descending total degree, then ascending
factor sequence, which yields e.g. ``x^2 - s`` and ``x*d2y + d1x*d1y + d2x*y``.
The rules that write a term sum (power product, coefficient beside it, sign
join) live in termdict; each BaseElem coefficient gives the head it writes
before its monomial with ``render_head``.

``render_polys`` is the one text route: it writes a sequence of polynomials
with a table that lives for that call only, so each symbol's text, each
factor x^e's sort key and text (termdict's one-factor rule) and each
coefficient's head is written once however many monomials they stand beside
(a presentation writes the same D_gamma(c) and x_i^(alpha) again and again
across its generators d_alpha f_j).  ``SparsePoly.render`` is its
one-polynomial case.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence, Union

from . import termdict
from .basefield import BaseElem
from .fields import FieldDescriptor

Monomial = tuple[tuple[object, int], ...]


def monomial_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: p[0].sort_key))


class SparsePoly(termdict.Ring):
    """Base class; instantiate through a concrete subclass."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: Mapping, field: FieldDescriptor):
        self.terms = {m: c for m, c in terms.items() if c}
        self.field = field

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor):
        return cls({}, field)

    @classmethod
    def const(cls, field: FieldDescriptor, value: Union[BaseElem, int, Fraction]):
        if not isinstance(value, BaseElem):
            value = BaseElem.const(field, value)
        return cls({(): value}, field)

    @classmethod
    def from_symbol(cls, field: FieldDescriptor, sym, coeff=None):
        c = coeff if coeff is not None else BaseElem.one(field)
        if not isinstance(c, BaseElem):
            c = BaseElem.const(field, c)
        return cls({((sym, 1),): c}, field)

    @classmethod
    def _of(cls, field: FieldDescriptor, terms: dict):
        """The polynomial on a term dict that is already zero-free, taken as is.

        Every caller passes such a dict; the ring operations do because
        termdict's add, mul and scale drop zeros, and a field has no zero
        divisors for __neg__ to make.
        """
        out = cls.__new__(cls)
        out.terms = terms
        out.field = field
        return out

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if type(other) is not type(self):
                raise TypeError("mixing different symbolic polynomial rings")
            return other
        if isinstance(other, (BaseElem, int, Fraction)):
            return self.const(self.field, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BaseElem, int, Fraction)):
            other = self.const(self.field, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return type(self) is type(other) and self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._of(self.field, termdict.add(self.terms, other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.field, {m: -c for m, c in self.terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._of(self.field, termdict.mul(self.terms, other.terms, monomial_mul))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a symbolic polynomial")
        return termdict.power(self, k, self.const(self.field, 1))

    def scale(self, c):
        if not isinstance(c, BaseElem):
            c = BaseElem.const(self.field, c)
        return self._of(self.field, termdict.scale(self.terms, c))

    # -- structure queries ----------------------------------------------------

    def symbols(self) -> set:
        return {sym for m in self.terms for sym, _ in m}

    def constant_term(self) -> BaseElem:
        return self.terms.get((), BaseElem.zero(self.field))

    def evaluate(self, assignment: Mapping) -> BaseElem:
        total = BaseElem.zero(self.field)
        for mono, coeff in self.terms.items():
            v = coeff
            for sym, e in mono:
                if sym not in assignment:
                    raise ValueError(f"unassigned symbol {sym}")
                v = v * assignment[sym] ** e
            total = total + v
        return total

    def substitute(self, image: Callable):
        """Replace every symbol by image(symbol), a polynomial of this class.

        Each power image(sym) ** e is built once per call, in a table that
        lives only as long as the call.
        """
        powers: dict = {}
        out = self.zero(self.field)
        for mono, coeff in self.terms.items():
            v = self.const(self.field, coeff)
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    sym, e = factor
                    power = powers[factor] = image(sym) ** e
                v = v * power
            out = out + v
        return out

    # -- rendering --------------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        return render_polys((self,), names)[0]

    def render_head(self) -> str:
        """What is written before a power product that self multiplies: a
        polynomial coefficient is always parenthesized, and never elided."""
        return f"({self.render()})"


def render_polys(
    polys: Sequence[SparsePoly], names: Sequence[str] | None = None, symbol_text: dict | None = None
) -> list[str]:
    """The text of each polynomial, its symbols written under names.

    One table for the call gives each symbol's text, each (symbol, exponent)
    factor's sort key and text, and each coefficient's head, so a symbol, a
    power of it or a coefficient that stands beside many monomials is written
    once.  A caller that writes symbols of its own passes their texts under
    the same names as symbol_text, which the call reads and fills.  Terms are
    sorted on (-degree, factor sort keys), the canonical order above.
    Coefficients are keyed by identity, which is sound only while each of
    them lives: the call holds every polynomial until it returns, and the
    table ends with it.
    """
    polys = tuple(polys)
    if symbol_text is None:
        symbol_text = {}
    factors: dict = {}  # (symbol, exponent) -> (sort key, text)
    heads: dict[int, str] = {}

    def factor(pair: tuple) -> tuple:
        sym, e = pair
        text = symbol_text.get(sym) or symbol_text.setdefault(sym, sym.render(names))
        return factors.setdefault(pair, ((sym.sort_key, e), termdict.render_power(text, e)))

    out = []
    for f in polys:
        rows = []  # (order key, text) per term; the constant term's (0, ()) sorts last
        for mono, c in f.terms.items():
            if not mono:
                rows.append(((0, ()), c.render()))
                continue
            degree, keys, texts = 0, [], []
            for pair in mono:
                k, text = factors.get(pair) or factor(pair)
                degree += pair[1]
                keys.append(k)
                texts.append(text)
            head = heads.get(id(c)) or heads.setdefault(id(c), c.render_head())
            rows.append(((-degree, tuple(keys)), termdict.render_product(head, "*".join(texts))))
        rows.sort(key=itemgetter(0))
        out.append(termdict.render_sum([text for _, text in rows]))
    return out
