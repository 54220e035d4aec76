"""Sparse polynomials in symbol codes with rational-function coefficients.

Each ring names its symbol class, ``symbol`` (DiffSymbol, LayeredSymbol): a
value object whose integer ``code`` sorts as its ``sort_key`` does.  Inside
the ring a symbol is only its code: a monomial is the sorted tuple of its
factors' codes with repetition, x0^2*x1 is (c0, c0, c1), and terms map
monomials to nonzero BaseElem coefficients, so no ring operation ranks or
hashes a symbol object.  Symbols are built only at the API boundary: the
public constructor encodes (symbol, exponent) pairs, ``symbols`` and
``substitute`` decode each distinct code once (``symbol.decode(code, n)``, n
the derivation count), and ``evaluate`` reads its assignment by code.

Canonical term order for rendering: descending total degree, then ascending
(code, exponent) sequence, which yields e.g. ``x^2 - s`` and
``x*d2y + d1x*d1y + d2x*y``.  ``render_polys`` is the one text route, with
termdict's rules: it writes a sequence of polynomials with a table that lives
for that call only, so each code's text (``symbol.code_text``, written from
the code) and each coefficient's head (``render_head``) is written once
however many terms they stand in.  ``SparsePoly.render`` is its
one-polynomial case.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence, Union

from . import termdict
from .basefield import BaseElem
from .fields import FieldDescriptor


def monomial_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


class SparsePoly(termdict.Ring):
    """Base class; instantiate through a concrete subclass."""

    __slots__ = ("terms", "field")
    symbol: type  # the symbol class, set by each concrete ring
    MAX_EXPONENT = 1000  # a key holds one code per unit of exponent: bound an exponent from outside

    def __init__(self, terms: Mapping, field: FieldDescriptor):
        """The polynomial on {monomial: coefficient}, a monomial a stored key or
        (symbol, exponent) pairs in any order; equal monomials are summed."""
        self.terms = termdict.add({}, ((self._key(m, field), c) for m, c in terms.items()))
        self.field = field

    @classmethod
    def _key(cls, mono, field: FieldDescriptor) -> tuple:
        codes = []
        for factor in mono:
            if type(factor) is int:
                codes.append(factor)
                continue
            sym, e = factor
            if sym.__class__ is not cls.symbol or not sym.fits(field) or type(e) is not int or e < 0:
                raise ValueError(f"{sym!r}^{e!r} is not a power of a symbol of a {cls.__name__} over this field")
            if e > cls.MAX_EXPONENT:
                raise ValueError(f"exponent {e} of {sym!r} is above {cls.MAX_EXPONENT}")
            codes += [sym.code] * e
        return tuple(sorted(codes))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor):
        return cls._of(field, {})

    @classmethod
    def const(cls, field: FieldDescriptor, value: Union[BaseElem, int, Fraction]):
        if not isinstance(value, BaseElem):
            value = BaseElem.const(field, value)
        return cls._of(field, {(): value} if value else {})

    @classmethod
    def from_symbol(cls, field: FieldDescriptor, sym, coeff: Union[BaseElem, int, Fraction] = 1):
        c = coeff if isinstance(coeff, BaseElem) else BaseElem.const(field, coeff)
        return cls._of(field, {cls._key(((sym, 1),), field): c} if c else {})

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
        if not isinstance(other, SparsePoly):
            try:
                other = self.const(getattr(other, "field", self.field), other)
            except TypeError:  # no BaseElem and no number
                return NotImplemented
        elif type(other) is not type(self):
            raise TypeError("mixing different symbolic polynomial rings")
        if other.field != self.field:
            raise ValueError("operands over different fields")
        return other

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            try:
                other = self.const(self.field, other)
            except TypeError:
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
        if k > 1 and k * max((e for m in self.terms for _, e in termdict.runs(m)), default=0) > self.MAX_EXPONENT:
            raise ValueError(f"the power {k} takes an exponent above {self.MAX_EXPONENT}")
        return termdict.power(self, k, self.const(self.field, 1))

    def scale(self, c):
        c = c if isinstance(c, BaseElem) else BaseElem.const(self.field, c)
        return self._of(self.field, termdict.scale(self.terms, c))

    # -- structure queries ----------------------------------------------------

    def symbols(self) -> set:
        n = self.field.derivation_count
        return {self.symbol.decode(code, n) for code in {code for m in self.terms for code in m}}

    def constant_term(self) -> BaseElem:
        return self.terms.get((), BaseElem.zero(self.field))

    def evaluate(self, assignment: Mapping) -> BaseElem:
        """The value under {symbol: value}, read by code; another ring's symbol assigns nothing."""
        symbol, field = self.symbol, self.field
        values = {s.code: v for s, v in assignment.items() if s.__class__ is symbol and s.fits(field)}
        total = BaseElem.zero(self.field)
        for mono, coeff in self.terms.items():
            v = coeff
            for code in mono:
                x = values.get(code)
                if x is None:
                    raise ValueError(f"unassigned symbol {self.symbol.decode(code, self.field.derivation_count)}")
                v = v * x
            total = total + v
        return total

    def substitute(self, image: Callable):
        """Replace every symbol by image(symbol), a polynomial of this class.

        Each code is decoded and each power image(symbol) ** e built once per
        call, in tables that live only as long as the call.
        """
        n = self.field.derivation_count
        symbols: dict = {}
        powers: dict = {}
        out = self.zero(self.field)
        for mono, coeff in self.terms.items():
            v = self.const(self.field, coeff)
            for factor in termdict.runs(mono):
                power = powers.get(factor)
                if power is None:
                    code, e = factor
                    sym = symbols.get(code) or symbols.setdefault(code, self.symbol.decode(code, n))
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

    One table for the call writes each code's text and each coefficient's
    head once; a caller that writes symbols of its own passes their texts
    under the same names as symbol_text, {code: text}, which the call reads
    and fills.  Terms are sorted on (-degree, (code, exponent) pairs).
    Coefficients are keyed by identity, sound while the call holds them all.
    """
    polys = tuple(polys)
    if not polys:
        return []
    symbol_text = {} if symbol_text is None else symbol_text
    n = polys[0].field.derivation_count
    code_text = polys[0].symbol.code_text
    heads: dict[int, str] = {}
    get = symbol_text.get

    def write(code: int) -> str:
        return symbol_text.setdefault(code, code_text(code, n, names))

    out = []
    for f in polys:
        rows = []  # (order key, text) per term; the constant term's (0, ()) sorts last
        for mono, c in f.terms.items():
            if not mono:
                rows.append(((0, ()), c.render()))
                continue
            pairs = termdict.runs(mono)
            text = "*".join([termdict.render_power(get(code) or write(code), e) for code, e in pairs])
            head = heads.get(id(c)) or heads.setdefault(id(c), c.render_head())
            rows.append(((-len(mono), pairs), termdict.render_product(head, text)))
        rows.sort(key=itemgetter(0))
        out.append(termdict.render_sum([text for _, text in rows]))
    return out
